// The elastic layer: ownership migration off dead nodes (Options.Elastic).
//
// The design rests on three invariants the normal protocol already provides:
//
//  1. Every tile version a dead node consumed remotely was broadcast by its
//     owner, and resilient owners snapshot every broadcast version into their
//     published cache — so all remote inputs of the dead node's tasks remain
//     reconstructible via the Request/Resend protocol.
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
	"time"

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
	died      bool   // this node crashed (Resilience.Died)
	completed []bool // per local task: it has finished here

	// The adoption tables, filled only once this node adopted something. A
	// dead rank's share of the plan is appended to the core's tables whole and
	// in plan order — its tasks from local task taskBase[rank], its slots from
	// local slot slotBase[rank] (-1: not adopted here) — so an adopted task
	// keeps the plan's dependency counts, waiter lists and input references,
	// only relative to other bases. xtask and xslot are the way back: local
	// task n+k is plan task xtask[k], local slot nslot+k plan slot xslot[k].
	// (Tiles need no base: newElastic stretches the core's tile table over the
	// whole plan, and a replay buffer sits at its tile's plan index.)
	taskBase     []int
	slotBase     []int32
	xtask, xslot []int32

	dstScratch  []int   // live destinations of one completion
	slotScratch []int32 // local slots of one version
	adopted     int     // Resilience.Adopted
}

func newElastic(e *engine) *elastic {
	P := e.comm.Size()
	el := &elastic{
		e:          e,
		dead:       make([]bool, P),
		adoptedBy:  make([]int, P),
		peerDone:   make([]bool, P),
		completed:  make([]bool, e.n),
		dstScratch: make([]int, 0, P),
		taskBase:   make([]int, P),
		slotBase:   make([]int32, P),
	}
	for n := range el.adoptedBy {
		el.adoptedBy[n], el.taskBase[n], el.slotBase[n] = -1, -1, -1
	}
	// Stretch the (still empty — run generates it) tile table over the whole
	// plan, so an adopted tile's replay buffer sits at its plan index.
	_, tiles := e.pl.Tiles(P - 1)
	e.tiles, e.tileLo = make([]*tile.Tile, tiles), 0
	return el
}

// local returns the local index of plan task t, if it runs here: natively,
// or because this node adopted it.
func (el *elastic) local(t int32) (int, bool) {
	e := el.e
	if t >= e.lo && t < e.lo+int32(e.n) {
		return int(t - e.lo), true
	}
	owner := e.pl.Owner(t)
	if base := el.taskBase[owner]; base >= 0 {
		lo, _ := e.pl.Tasks(owner)
		return base + int(t-lo), true
	}
	return 0, false
}

// slotsOf lists the local slots of plan task t's output version: the one the
// plan gives this node, and the dead rank's own in every share adopted here —
// adoption does not merge them, so a version may sit in several.
func (el *elastic) slotsOf(t int32) []int32 {
	e, pl := el.e, el.e.pl
	slots := el.slotScratch[:0]
	for _, rank := range pl.Dsts(t) {
		s := pl.SlotAt(t, rank) // every destination is a slot
		if lo, _ := pl.Slots(rank); rank == e.rank {
			slots = append(slots, s-lo)
		} else if base := el.slotBase[rank]; base >= 0 {
			slots = append(slots, base+s-lo)
		}
	}
	el.slotScratch = slots
	return slots
}

// deliver hands msg — plan task t's output version, arrived over the wire or
// produced here — to every local slot still awaiting it: a copy is retained
// where input references read it, and the slot's waiters are released. Fed
// slots are skipped, so a version delivered twice releases nothing twice.
func (el *elastic) deliver(t int32, msg cluster.Message) {
	e := el.e
	for _, s := range el.slotsOf(t) {
		if e.fed[s] {
			continue
		}
		if e.readers[s] > 0 {
			e.retain(s, msg.Dup())
		}
		e.feed(s)
	}
	msg.Release()
}

// feed releases the adopted tasks waiting on local slot s >= nslot.
func (el *elastic) feed(s int32) {
	e := el.e
	for _, t := range e.pl.Waiters(el.xslot[int(s)-e.nslot]) {
		idx, _ := el.local(t)
		e.release(idx)
	}
}

// inputBase returns the base adopted plan task pt's slot references are
// relative to: its dead owner's first plan slot, moved to where this engine
// keeps that share's slots.
func (el *elastic) inputBase(pt int32) int32 {
	owner := el.e.pl.Owner(pt)
	lo, _ := el.e.pl.Slots(owner)
	return lo - el.slotBase[owner]
}

// barrier is the elastic exit condition, asked once this node has finished
// everything it owns or adopted. It is a barrier, not a local count: the node
// broadcasts cluster.NoteDone (once — adoption may raise the completion
// target again, and a stale NoteDone is harmless because no node's run is
// over until the whole cluster settles) and keeps its workers alive — asleep,
// while the receiver answers re-requests and relays tree hops, but above all
// remaining adoptable work-capacity — until every peer is done or dead. That
// is what guarantees a death always finds its deterministic adopter with
// workers to wake, never already exited.
func (el *elastic) barrier() bool {
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

// die is this node's injected crash, just before its owned task at: announce
// it out-of-band and fall silent — no more dispatch, no publications, no
// request answering. The cluster is NOT poisoned; the survivors' adopter
// replays our tasks and the run completes without us.
func (el *elastic) die(at int) {
	e := el.e
	el.died = true
	e.comm.Notify(cluster.NoteDown, e.rank)
	e.fault("crash", e.rank, e.rank, fmt.Sprintf("task %d", at))
}

// complete is the completion call point: it returns the live destination
// list and whether any remote consumer exists at all.
//
// The node may host both halves of a dependency edge that used to cross the
// wire. The core has released the producer's same-node successors (native, or
// adopted alongside it: they read its in-place buffer exactly as on the
// original owner); a consumer here that belongs to another node's share of
// the plan waits on that share's slot for the version, and is fed a snapshot
// exactly as if the tag had arrived over the network — one release path per
// edge, so a racing stale arrival can never double-decrement a dependency
// count.
func (el *elastic) complete(idx int, pt int32, tag cluster.Tag, out *tile.Tile) ([]int, bool) {
	e, pl := el.e, el.e.pl
	dsts := pl.Dsts(pt)
	hadRemote := len(dsts) > 0
	if idx >= e.n {
		el.adopted++
		// An adopted task's remote consumers are every successor this node
		// does not natively own: those on its original node included.
		hadRemote = len(pl.Succs(pt)) > 0 || len(dsts) > 1 || (len(dsts) == 1 && dsts[0] != e.rank)
	}
	el.completed[idx] = true
	// The synthetic arrival. A version that came over the wire first (a
	// pre-crash copy racing the replay) fed its slots then and is not admitted
	// again; out is advanced in place by the tile's later writers, hence the
	// snapshot.
	if len(el.slotsOf(pt)) > 0 && e.res.admit(tag, -1) {
		el.deliver(pt, cluster.Message{From: e.rank, To: e.rank, Tag: tag, Payload: out.Clone()})
	}
	return el.liveDsts(pt), hadRemote
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
		e.res.restart(ward)
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

// adoptTasks wires dead rank from's whole share of the plan into this engine
// and returns how many tasks that is. The whole share, not just tasks with
// unreceived outputs, because this node cannot know which outputs other
// consumers are still missing; replaying everything is always safe
// (duplicates drop idempotently) and keeps the migration decision local.
//
// The share's tasks and slots are appended to the core's tables as the plan
// lists them and its tiles regenerated as replay buffers, so from here on the
// tasks run like native ones: a predecessor of the same share releases its
// successor directly, any other is awaited in the share's slot for its
// version. What is left is to say where each of those versions comes from:
//
//   - one a local slot still holds is shared with it;
//   - one this node already produced — natively, or in another adopted share —
//     comes from its published cache (a consumer on another node existed, so
//     it was broadcast, and every broadcast is snapshotted);
//   - one this node will produce is delivered at that completion;
//   - anything else is awaited exactly like a network arrival, with an
//     immediate Request because the version may never have been addressed to
//     this node in the original schedule.
func (el *elastic) adoptTasks(from int) int {
	e, pl := el.e, el.e.pl
	lo, hi := pl.Tasks(from)
	slotLo, slotHi := pl.Slots(from)
	el.taskBase[from], el.slotBase[from] = len(e.remaining), int32(len(e.recv))
	for s := slotLo; s < slotHi; s++ {
		el.xslot = append(el.xslot, s)
	}
	e.recv = append(e.recv, make([]cluster.Message, slotHi-slotLo)...)
	e.readers = append(e.readers, pl.SlotReaders(slotLo, slotHi)...)
	e.fed = append(e.fed, make([]bool, slotHi-slotLo)...)
	e.generate(from)
	for pt := lo; pt < hi; pt++ {
		el.xtask = append(el.xtask, pt)
		e.remaining = append(e.remaining, pl.NumDeps(pt)) // raises the core's completion target
		el.completed = append(el.completed, false)
		if pl.NumDeps(pt) == 0 {
			e.pushReady(len(e.remaining) - 1)
		}
	}

	now := time.Now()
	for s := slotLo; s < slotHi; s++ {
		producer := pl.SlotProducer(s)
		vtag := e.tagOf(producer)
		msg := cluster.Message{From: e.rank, To: e.rank, Tag: vtag}
		for _, have := range el.slotsOf(producer) {
			if e.recv[have].Payload != nil {
				msg = e.recv[have].Dup()
				break
			}
		}
		li, here := el.local(producer)
		switch {
		case msg.Payload != nil:
		case here && el.completed[li]:
			if msg.Payload = e.res.cached(vtag); msg.Payload == nil {
				panic(fmt.Sprintf("runtime: node %d: adopted task needs local version %v that was never published", e.rank, vtag))
			}
		default:
			e.res.readmit(vtag) // let the version in again after its first copy was consumed
			if !here && e.res.expect(vtag, now) {
				if target := el.liveOwner(pl.Owner(producer)); target >= 0 && target != e.rank {
					e.comm.Request(target, vtag)
				}
			}
			continue
		}
		el.deliver(producer, msg)
	}
	return int(hi - lo)
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
