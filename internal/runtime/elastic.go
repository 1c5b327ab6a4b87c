// The elastic layer: ownership migration off dead nodes (Options.Elastic).
//
// The design rests on three invariants the normal protocol already provides:
//
//  1. Every tile version a dead node consumed remotely was broadcast by its
//     owner, and resilient owners keep every broadcast version in their
//     published cache by reference — only a tile's last version is sent —
//     so all remote inputs of the dead node's tasks remain reconstructible
//     via the Request/Resend protocol.
//  2. Initial tile contents are deterministic (the gen generator), so the
//     dead node's own tiles can be regenerated from scratch and its entire
//     writer chains replayed in place, in the original dependency order.
//  3. Kernels are deterministic, so a replayed task's output is bit-identical
//     to the lost original — duplicate publications (a pre-crash in-flight
//     copy racing the replay) drop idempotently at every receiver, and the
//     final factors match a crash-free run exactly.
//
// Adoption therefore migrates tasks, not tiles: the adopter re-runs the dead
// node's whole share of the plan under the original versioned tags, and
// downstream consumers cannot tell the difference. The adopter is chosen
// without any coordination — the lowest rank of the locally known alive set —
// because every survivor evaluates the same deterministic rule on the same
// NoteDown gossip. The scope is one death (or any sequence of deaths that
// leaves the deterministic choice unambiguous); concurrent independent deaths
// with divergent alive-views are out of scope and documented in DESIGN.md §9.
package runtime

import (
	"fmt"

	"anybc/internal/cluster"
	"anybc/internal/tile"
)

// elastic is the layer's state, built only under Options.Elastic — which also
// arms resilience, so e.res is never nil here. The package comment lists the
// core's call points; the resilience sweep escalates into liveOwner and
// markDead, and the layer reaches resilience through its methods alone.
type elastic struct {
	e *engine

	// dead tracks crashed and presumed-dead peers, adoptedBy the survivor
	// that re-runs each dead node's tasks (the lowest alive rank, so every
	// node agrees without coordination), peerDone the completion barrier
	// that keeps every node's run serving re-requests and adoptions until the
	// whole cluster has finished.
	dead      []bool
	adoptedBy []int
	peerDone  []bool
	doneSent  bool
	died      bool // this node crashed (finalHolder gathers from its adopter)

	// shares holds, per dead rank this node adopted, that rank's share of the
	// plan, built by the same constructor as the node's own; adopted counts
	// their tasks, which raise the completion target.
	shares  []*share
	adopted int

	dstScratch []int // live destinations of one completion
}

func newElastic(e *engine) *elastic {
	P := e.comm.Size()
	el := &elastic{
		e:          e,
		dead:       make([]bool, P),
		adoptedBy:  make([]int, P),
		peerDone:   make([]bool, P),
		shares:     make([]*share, P),
		dstScratch: make([]int, 0, P),
	}
	for n := range el.adoptedBy {
		el.adoptedBy[n] = -1
	}
	return el
}

// barrier is the elastic exit condition, asked once this node has finished
// everything it owns. It first waits for the adopted tasks; then it is a
// barrier, not a local count: the node broadcasts cluster.NoteDone (once —
// adoption may raise the completion target again, and a stale NoteDone is
// harmless because no node's run is over until the whole cluster settles) and
// keeps its workers alive — asleep, while the senders of re-requests and tree
// hops have them answered and relayed under its lock, but above all remaining
// adoptable work-capacity — until
// every peer is done or dead. That is what guarantees a death always finds its
// deterministic adopter with workers to wake, never already exited.
func (el *elastic) barrier() bool {
	if el.e.done < len(el.e.remaining)+el.adopted {
		return false
	}
	if !el.doneSent {
		el.doneSent = true
		el.peerDone[el.e.rank] = true
		el.e.comm.Notify(cluster.NoteDone, el.e.rank)
	}
	for r := range el.peerDone {
		if !el.peerDone[r] && !el.dead[r] {
			return false
		}
	}
	return true
}

// die is this node's injected crash: announce it out-of-band and fall silent
// — no more dispatch, no publications, no request answering. The cluster is
// NOT poisoned; the survivors' adopter replays our tasks and the run
// completes without us.
func (el *elastic) die() {
	el.died = true
	el.e.comm.Notify(cluster.NoteDown, el.e.rank)
}

// complete is the completion call point: it returns the live destination
// list and whether any remote consumer exists at all.
//
// The node may host both halves of a dependency edge that used to cross the
// wire. The core has released the producer's successors in its own share
// (they read its in-place buffer exactly as on the original owner); a
// consumer here in another share waits on that share's slot for the version,
// and is fed the version exactly as if the tag had arrived over the network —
// one release path per edge, so a racing stale arrival can never
// double-decrement a dependency count.
func (el *elastic) complete(sh *share, t int32, out *tile.Tile) ([]int, bool) {
	e, pl := el.e, el.e.pl
	dsts := pl.Dsts(t)
	hadRemote := len(dsts) > 0
	if sh != &e.share {
		// An adopted task's remote consumers are every successor this node
		// does not natively own: those on its original node included.
		hadRemote = len(pl.Succs(t)) > 0 || len(dsts) > 1 || (len(dsts) == 1 && dsts[0] != e.rank)
	}
	// The synthetic arrival, by the wire's rule: when a share here awaits the
	// version in an unfed slot (a pre-crash copy racing the replay may have
	// fed them). It is delivered by reference, as the wire lends it.
	if s := e.slotOf(t); e.awaits(t, s) {
		e.deliver(t, s, -1, cluster.Lease{Payload: out})
	}
	return el.liveDsts(t), hadRemote
}

// onNote handles a membership notice from the out-of-band plane.
func (el *elastic) onNote(msg cluster.Message) {
	switch msg.Note {
	case cluster.NoteDone:
		el.peerDone[msg.NoteRank] = true
	case cluster.NoteDown:
		if msg.NoteRank == el.e.rank {
			// A peer presumed us dead — a false positive, since we are
			// demonstrably alive. Keep computing: the adopter's replay
			// produces bit-identical duplicates of everything we publish,
			// so the split view converges idempotently.
			return
		}
		el.markDead(msg.NoteRank, false)
	}
}

// liveOwner maps a rank through the adoption chain to whoever now produces
// (and re-serves) its tile versions: the rank itself while alive, its adopter
// once dead, or -1 when a dead rank has no adopter yet.
func (el *elastic) liveOwner(rank int) int {
	for el.dead[rank] {
		next := el.adoptedBy[rank]
		if next < 0 || next == rank {
			return -1
		}
		rank = next
	}
	return rank
}

// markDead records rank's death, gossips it when this node is the detector
// (gossip=true; the dying node announces itself, so crash notes are not
// re-gossiped), deterministically selects the adopter — the lowest alive
// rank — and, when that is this node, migrates the dead node's tasks here.
// The shares the dead rank had itself adopted pass to the same adopter: every
// dead rank is re-run by the lowest alive one, whoever held it before.
func (el *elastic) markDead(rank int, gossip bool) {
	e := el.e
	if rank == e.rank || el.dead[rank] {
		return
	}
	el.dead[rank] = true
	if gossip {
		e.comm.Notify(cluster.NoteDown, rank)
	}
	adopter := 0
	for el.dead[adopter] {
		adopter++ // this node is alive, so the scan ends
	}
	e.fault("node-down", rank, adopter, fmt.Sprintf("adopter %d", adopter))
	for ward, dead := range el.dead {
		if !dead || el.adoptedBy[ward] == adopter {
			continue
		}
		// rank itself, or a share whose adopter rank was until it died.
		el.adoptedBy[ward] = adopter
		if adopter == e.rank && !el.peerDone[ward] {
			// A rank that announced completion before being presumed dead left a
			// complete published cache behind; only an incomplete rank's tasks
			// need re-running.
			n := el.adoptTasks(ward)
			e.fault("adopt", e.rank, ward, fmt.Sprintf("%d tasks", n))
		}
	}
}

// liveDsts filters the static destination list of plan task pt through what
// only the run knows: a destination that died is replaced by its adopter, and
// one nobody has adopted yet (or that this node adopted itself) is skipped —
// the eventual adopter pulls the version via Request from our published
// cache. The successor's original rank otherwise consumes the version over
// the wire regardless of whether a copy of the task also runs here: adopting
// a task never cancels the delivery to a rank that still natively awaits it.
func (el *elastic) liveDsts(pt int32) []int {
	e := el.e
	live := el.dstScratch[:0]
next:
	for _, rank := range e.pl.Dsts(pt) {
		dst := el.liveOwner(rank)
		if dst == e.rank || dst < 0 {
			continue
		}
		for _, have := range live {
			if have == dst {
				continue next
			}
		}
		live = append(live, dst)
	}
	el.dstScratch = live
	return live
}

// adoptTasks builds dead rank from's whole share of the plan on this node and
// returns how many tasks that is. The whole share, not just tasks with
// unreceived outputs, because this node cannot know which outputs other
// consumers are still missing; replaying everything is always safe
// (duplicates drop idempotently) and keeps the migration decision local.
//
// The share is built by the node's own constructor and its tiles regenerated
// as replay buffers, so from here on its tasks run like native ones: a
// predecessor of the same share releases its successor directly, any other is
// awaited in the share's slot for its version. What is left is to say where
// each of those versions comes from:
//
//   - one a slot here still holds is shared with it;
//   - one this node already produced — natively, or in another adopted share —
//     comes from its published cache (the dead rank consumed it, so it was
//     broadcast, and every broadcast is cached);
//   - one this node will produce is delivered at that completion;
//   - anything else is awaited exactly like a network arrival, its clock
//     armed once a task of the share blocks on it; one not on its way to
//     this node's own share is asked for at once, since the original
//     schedule may never have addressed it here — the owner answers when it
//     publishes, the way a posted receive is matched.
func (el *elastic) adoptTasks(from int) int {
	e, pl := el.e, el.e.pl
	sh := newShare(pl, from)
	el.shares[from] = &sh
	e.generate(&sh)
	e.hold(len(sh.tiles))
	for k, rem := range sh.remaining {
		if rem == 0 {
			e.pushReady(sh.lo + int32(k))
		}
	}
	el.adopted += len(sh.remaining)

	slotLo, slotHi := pl.Slots(from)
	for s := slotLo; s < slotHi; s++ {
		producer := pl.SlotProducer(s)
		vtag := e.tagOf(producer)
		var l cluster.Lease
		for _, rank := range pl.Dsts(producer) {
			if have := e.shareFor(rank); have != nil {
				if held := have.recv[pl.SlotAt(producer, rank)-have.slotLo]; held.Payload != nil {
					l = held.Dup()
					break
				}
			}
		}
		if l.Payload == nil {
			l.Payload = e.res.cached(vtag)
		}
		if l.Payload == nil {
			// The new share's slot is unfed: the next copy is taken in.
			owner, own := pl.Owner(producer), e.slotOf(producer)
			if target := el.liveOwner(owner); e.shareFor(owner) == nil && (own < 0 || e.fed[own]) &&
				target >= 0 && target != e.rank {
				e.comm.Request(target, vtag)
			}
			continue
		}
		e.deliver(producer, e.slotOf(producer), -1, l)
	}
	e.res.arm(&sh)
	return len(sh.remaining)
}

// finalHolder returns the rank whose engine holds rank's tiles when the run
// is gathered: a tile whose owner crashed lives on in its adopter's replay
// buffers, and any surviving engine's adoption table locates it. A rank
// merely presumed dead (false positive) finished its own tiles, so the remap
// follows only engines that really died.
func finalHolder(engines []*engine, rank int) int {
	for engines[rank].el.died {
		adopter := -1
		for _, e := range engines {
			if by := e.el.adoptedBy[rank]; by >= 0 {
				adopter = by
				break
			}
		}
		if adopter < 0 || adopter == rank {
			break
		}
		rank = adopter
	}
	return rank
}
