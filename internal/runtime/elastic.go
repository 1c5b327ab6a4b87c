// The elastic layer: ownership migration off dead nodes, and speculative
// replay of lagging ones (Options.Elastic / Options.LagReRequests).
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
//     copy racing the replay, or a laggard finally answering a speculation)
//     drop idempotently at every receiver, and the final factors match a
//     crash-free run exactly.
//
// Adoption therefore migrates tasks, not tiles: the adopter re-runs the dead
// node's full task set under the original versioned tags, and downstream
// consumers cannot tell the difference. The adopter is chosen without any
// coordination — hetero.Fastest over the locally known alive set — because
// every survivor evaluates the same deterministic rule on the same NoteDown
// gossip. The scope is one death (or any sequence of deaths that leaves the
// deterministic choice unambiguous); concurrent independent deaths with
// divergent alive-views are out of scope and documented in DESIGN.md §9.
package runtime

import (
	"fmt"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/hetero"
	"anybc/internal/sched"
	"anybc/internal/tile"
)

// elastic is the layer's state, built only under Options.Elastic — which also
// arms resilience, so e.res is never nil here. The package comment lists the
// core's call points; the resilience sweep escalates into liveOwner, markDead
// and speculate, and the layer reaches resilience through its methods alone.
type elastic struct {
	e      *engine
	speeds []float64 // Options.Speeds: the adopter rule's input
	lagReq int       // Options.LagReRequests

	// dead tracks crashed and presumed-dead peers, adoptedBy the survivor
	// that re-runs each dead node's tasks (the deterministic hetero.Fastest
	// rule, so every node agrees without coordination), peerDone the
	// completion barrier that keeps every node's event loop serving
	// re-requests and adoptions until the whole cluster has finished.
	dead      []bool
	adoptedBy []int
	peerDone  []bool
	doneSent  bool
	died      bool   // this node crashed (Resilience.Died)
	completed []bool // per local task: it has finished here

	// The adoption tables, filled only once this node adopted something:
	// adopted local task n+k is xtask[k]; the maps translate plan indices the
	// plan never gave this node into the local slices adoption appended to.
	// (Tiles need no translation: newElastic stretches the core's tile table
	// over the whole plan, and a replay buffer sits at its tile's plan index.)
	xtask []adoptedTask
	xidx  map[int32]int   // plan task -> adopted local task
	xslot map[int32]int32 // producer plan task -> local slot created by adoption
	xwait map[int32][]int // local slot -> adopted tasks (and late registrations) it releases

	dstScratch  []int // live destinations of one completion
	adopted     int   // Resilience.Adopted
	speculative int   // Resilience.Speculative
}

// adoptedTask is one task this node runs on another's behalf.
type adoptedTask struct {
	pt  int32   // the plan task
	key int64   // its scheduler key (demoted when speculative)
	ins []int32 // its input references: plan tile indices, local slot indices
}

func newElastic(e *engine, opt Options) *elastic {
	P := e.comm.Size()
	el := &elastic{
		e:          e,
		speeds:     opt.Speeds,
		lagReq:     opt.LagReRequests,
		dead:       make([]bool, P),
		adoptedBy:  make([]int, P),
		peerDone:   make([]bool, P),
		completed:  make([]bool, e.n),
		dstScratch: make([]int, 0, P),
		xidx:       make(map[int32]int),
		xslot:      make(map[int32]int32),
		xwait:      make(map[int32][]int),
	}
	for n := range el.adoptedBy {
		el.adoptedBy[n] = -1
	}
	// Stretch the (still empty — run generates it) tile table over the whole
	// plan, so an adopted tile's replay buffer sits at its plan index.
	_, tiles := e.pl.Tiles(P - 1)
	e.tiles, e.tileLo = make([]*tile.Tile, tiles), 0
	return el
}

// at returns the adoption record of local task idx >= n.
func (el *elastic) at(idx int) *adoptedTask { return &el.xtask[idx-el.e.n] }

// local returns the local index of plan task t, if it runs here: natively,
// or because this node adopted it.
func (el *elastic) local(t int32) (int, bool) {
	if e := el.e; t >= e.lo && t < e.lo+int32(e.n) {
		return int(t - e.lo), true
	}
	idx, ok := el.xidx[t]
	return idx, ok
}

// slotOf returns the local slot adoption created for plan task t's output
// version, or -1.
func (el *elastic) slotOf(t int32) int32 {
	if s, ok := el.xslot[t]; ok {
		return s
	}
	return -1
}

// feedWaiters releases the adopted tasks (and late registrations) waiting on
// local slot s.
func (el *elastic) feedWaiters(s int32) {
	if w := el.xwait[s]; len(w) > 0 {
		delete(el.xwait, s)
		for _, idx := range w {
			el.e.release(idx)
		}
	}
}

// barrier is the elastic exit condition, asked once this node has finished
// everything it owns or adopted. It is a barrier, not a local count: the node
// broadcasts cluster.NoteDone (once — adoption may raise the completion
// target again, and a stale NoteDone is harmless because every node stays in
// its loop until the whole cluster settles) and keeps its event loop alive —
// answering re-requests, relaying tree hops, and above all remaining
// adoptable work-capacity — until every peer is done or dead. That is what
// guarantees a death always finds its deterministic adopter still inside an
// event loop, never already exited.
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
// wire. Local successors split by side: a successor on the same side as the
// producer (both native, or both adopted from the same node — the plan's
// same-node successor list, reading the producer's in-place buffer exactly
// as on the original owner) is released directly; a successor on the other
// side registered a waiter on the version's slot at adoption time and is fed
// through fulfillLocal, which stashes a snapshot exactly as if the tag had
// arrived over the network — one release path per edge, so a racing stale
// arrival can never double-decrement a dependency count.
func (el *elastic) complete(idx int, pt int32, tag cluster.Tag, out *tile.Tile) ([]int, bool) {
	e, pl := el.e, el.e.pl
	dsts := pl.Dsts(pt)
	hadRemote, adopted := len(dsts) > 0, idx >= e.n
	if adopted {
		if sched.Demoted(el.at(idx).key) {
			el.speculative++
		} else {
			el.adopted++
		}
		for _, s := range pl.Succs(pt) {
			if li, ok := el.xidx[s]; ok {
				e.release(li)
			}
		}
		// An adopted task's remote consumers are every successor this node
		// does not natively own: those on its original node included.
		hadRemote = len(pl.Succs(pt)) > 0 || len(dsts) > 1 || (len(dsts) == 1 && dsts[0] != e.rank)
	}
	el.completed[idx] = true
	el.fulfillLocal(pt, tag, out)
	return el.liveDsts(pt, adopted), hadRemote
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
// re-gossiped), deterministically selects the adopter, and — when that is
// this node — migrates the dead node's tasks here.
func (el *elastic) markDead(rank int, gossip bool) {
	e := el.e
	if rank == e.rank || el.dead[rank] {
		return
	}
	el.dead[rank] = true
	if gossip {
		e.comm.Notify(cluster.NoteDown, rank)
	}
	adopter := hetero.Fastest(el.speeds, func(r int) bool { return !el.dead[r] }, e.comm.Size())
	el.adoptedBy[rank] = adopter
	e.fault("node-down", rank, adopter, fmt.Sprintf("adopter %d", adopter))
	e.res.restart(rank)
	if adopter == e.rank && !el.peerDone[rank] {
		// A rank that announced completion before being presumed dead left a
		// complete published cache behind; only an incomplete rank's tasks
		// need re-running.
		el.adoptNode(rank)
	}
}

// liveDsts filters the static destination list of plan task pt through what
// only the run knows: a destination that died is replaced by its adopter,
// one nobody has adopted yet (or that this node adopted itself) is skipped —
// the eventual adopter pulls the version via Request from our published
// cache — and a speculative replay never feeds a lagging-but-alive node its
// own output. The successor's original rank otherwise consumes the version
// over the wire regardless of whether a copy of the task also runs here:
// adopting a task — fully or speculatively — never cancels the delivery to
// the rank that still natively awaits it.
func (el *elastic) liveDsts(pt int32, adopted bool) []int {
	e := el.e
	origOwner := -1
	if adopted {
		origOwner = e.pl.Owner(pt)
	}
	live := el.dstScratch[:0]
next:
	for _, rank := range e.pl.Dsts(pt) {
		dst := el.liveOwner(rank)
		if dst == e.rank || dst < 0 {
			continue
		}
		if adopted && dst == origOwner && !el.dead[origOwner] {
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

// adoptNode migrates the dead rank's entire task set — its share of the plan
// — onto this node. The whole set, not just tasks with unreceived outputs,
// because this node cannot know which outputs other consumers are still
// missing; replaying everything is always safe (duplicates drop idempotently)
// and keeps the migration decision local.
func (el *elastic) adoptNode(rank int) {
	e := el.e
	lo, hi := e.pl.Tasks(rank)
	tasks := make([]int32, 0, hi-lo)
	for t := lo; t < hi; t++ {
		tasks = append(tasks, t)
	}
	n := el.adoptTasks(tasks, false)
	e.fault("adopt", e.rank, rank, fmt.Sprintf("%d tasks", n))
}

// speculate is the overdue sweep's call point for a version whose owner lag
// has been asked for it attempts times: once that reaches
// Options.LagReRequests and lag is not known dead — alive but lagging — it
// speculatively adopts the version's producer chain, racing the laggard
// (whichever copy lands first wins; the loser drops as an idempotent
// duplicate), and reports true. The chain is the closure of the producer's
// ancestors within the laggard's own tasks, cut wherever a version is
// already at hand in recv. The replay runs at demoted priority
// (sched.Demote) so it never starves this node's own critical path, and its
// outputs are never sent back to the laggard.
func (el *elastic) speculate(tag cluster.Tag, lag, attempts int) bool {
	e := el.e
	if el.lagReq <= 0 || attempts < el.lagReq || el.dead[lag] {
		return false
	}
	root := e.pl.Producer(tag.I, tag.J, tag.V)
	if root < 0 {
		return true
	}
	visited := make(map[int32]bool)
	var chain []int32
	var walk func(t int32)
	walk = func(t int32) {
		if visited[t] {
			return
		}
		visited[t] = true
		if _, mine := el.local(t); mine {
			return // native, or adopted by an earlier migration
		}
		for _, dep := range e.pl.Deps(t) {
			if e.pl.Owner(dep) != lag {
				continue // non-laggard inputs resolve via recv or Request
			}
			if el.holds(dep) {
				continue // payload at hand: the chain cuts here
			}
			walk(dep)
		}
		chain = append(chain, t) // post-order: dependencies first
	}
	walk(root)
	if len(chain) == 0 {
		return true
	}
	n := el.adoptTasks(chain, true)
	e.fault("speculate", e.rank, lag, fmt.Sprintf("%d tasks for %v", n, tag))
	// Every tag the chain will produce locally stops escalating its (alive)
	// owner toward presumed death: the replay is already racing the wire.
	for _, t := range chain {
		e.res.raced(e.tagOf(t))
	}
	return true
}

// holds reports whether plan task t's output version is retained in recv.
func (el *elastic) holds(t int32) bool {
	s := el.e.slotOf(t)
	return s >= 0 && el.e.recv[s].Payload != nil
}

// slotFor returns the local slot of plan task t's output version, appending
// one when neither the plan nor an earlier adoption gave this node any: an
// adopted task may consume a version that was never addressed here.
func (el *elastic) slotFor(t int32) int32 {
	e := el.e
	if s := e.slotOf(t); s >= 0 {
		return s
	}
	s := int32(len(e.recv))
	e.recv = append(e.recv, cluster.Message{})
	e.readers = append(e.readers, 0)
	e.fed = append(e.fed, false)
	el.xslot[t] = s
	return s
}

// stashPublished materializes a version this node itself published as a
// synthetic arrival in local slot s, so an adopted consumer reads the
// immutable snapshot instead of the live in-place buffer (which later
// writers advance). The version is guaranteed cached: a task on another
// node consumed it, so it was broadcast — and every broadcast is
// snapshotted.
func (el *elastic) stashPublished(vtag cluster.Tag, s int32) {
	e := el.e
	if e.recv[s].Payload != nil {
		return
	}
	cached := e.res.cached(vtag)
	if cached == nil {
		panic(fmt.Sprintf("runtime: node %d: adopted task needs local version %v that was never published", e.rank, vtag))
	}
	e.retain(s, cluster.Message{From: e.rank, To: e.rank, Tag: vtag, Payload: cached})
	e.res.admit(vtag, -1)
}

// fulfillLocal is the synthetic-arrival half of adoption: when a completed
// task's output version has same-node consumers that registered to await it
// as a network arrival (native tasks waiting on a now-adopted producer, or
// adopted tasks waiting on a producer of the other side), it stashes a
// snapshot into the version's slot, marks the tag seen, and releases the
// waiters — exactly what onArrival would have done had the version crossed
// the wire. Waiters and pending are consumed here, so a stale copy arriving
// later (a pre-crash in-flight send, or a laggard finally answering) drops
// through the ordinary duplicate paths without double-decrementing any
// dependency count.
func (el *elastic) fulfillLocal(pt int32, netTag cluster.Tag, out *tile.Tile) {
	e := el.e
	s := e.slotOf(pt)
	if s < 0 {
		return
	}
	waiting := len(el.xwait[s]) > 0 ||
		(!e.fed[s] && int(s) < e.nslot && len(e.pl.Waiters(e.slotLo+s)) > 0)
	if !waiting && e.readers[s] == 0 {
		return
	}
	if !e.res.admit(netTag, -1) {
		return // the version arrived over the wire first; waiters were fed then
	}
	if e.readers[s] > 0 && e.recv[s].Payload == nil {
		// Snapshot: out is advanced in place by the tile's later writers.
		e.retain(s, cluster.Message{From: e.rank, To: e.rank, Tag: netTag, Payload: out.Clone()})
	}
	e.feed(s)
}

// adoptTasks wires the given plan tasks into this engine's scheduling state
// and returns how many were actually added (tasks already native or
// previously adopted are skipped). demote selects the speculative priority
// band. Everything it needs — predecessors, input references, writer chains
// — it reads from the original owner's share of the plan.
//
// Pass 1 registers every task (so intra-set dependency resolution sees the
// whole closure regardless of order); pass 2 resolves each task's
// dependencies and input tiles:
//
//   - a dependency adopted here from the same node releases its consumer
//     directly at completion (both sides replay in place on the regenerated
//     buffers, ordered exactly as on the original owner);
//   - any other dependency produced here — a native task, or one adopted
//     from another node — feeds the adopted consumer a published snapshot:
//     immediately when already completed, via fulfillLocal otherwise;
//   - anything else is awaited exactly like a network arrival, with an
//     immediate Request because the version may never have been addressed to
//     this node in the original schedule.
func (el *elastic) adoptTasks(tasks []int32, demote bool) int {
	e, pl := el.e, el.e.pl
	added := make([]int, 0, len(tasks))
	for _, pt := range tasks {
		if _, ok := el.local(pt); ok {
			continue
		}
		idx := e.n + len(el.xtask)
		key := sched.Band(pl.Key(pt), e.band)
		if demote {
			key = sched.Demote(key)
		}
		el.xtask = append(el.xtask, adoptedTask{pt: pt, key: key})
		el.xidx[pt] = idx
		e.remaining = append(e.remaining, 0) // raises the core's completion target
		el.completed = append(el.completed, false)
		added = append(added, idx)
	}
	now := time.Now()
	for _, idx := range added {
		pt := e.task(idx)
		from, otile := pl.Owner(pt), pl.Out(pt)
		// sameSide: produced here by a task adopted from the same node.
		sameSide := func(t int32) (li int, here, same bool) {
			li, here = el.local(t)
			return li, here, here && li >= e.n && pl.Owner(t) == from
		}

		// Dependency accounting: how many release events this task awaits,
		// and through which path each arrives.
		selfPrev, rem := int32(-1), int32(0)
		for _, dep := range pl.Deps(pt) {
			if pl.Out(dep) == otile {
				selfPrev = dep
			}
			li, here, same := sameSide(dep)
			switch {
			case same:
				// Released directly when the producer completes here
				// (onComplete's same-side branch).
				if !el.completed[li] {
					rem++
				}
			case !here && pl.Out(dep) == otile:
				// Chain cut below this writer: the received predecessor
				// version seeds the replay buffer (below); nothing to await.
			case el.holds(dep):
				// Payload at hand.
			case here && el.completed[li]:
				// Already produced here on the other side: the input sweep
				// below stashes its published snapshot.
			default:
				// Await it like a network arrival: fed through fulfillLocal
				// when a task of the other side produces it here, otherwise
				// requested immediately — in the original schedule this
				// version may never have been addressed to us, so no
				// broadcast is coming.
				s := el.slotFor(dep)
				el.xwait[s] = append(el.xwait[s], idx)
				rem++
				vtag := e.tagOf(dep)
				e.res.readmit(vtag) // let a re-requested copy back in
				if !here && e.res.expect(vtag, now, demote) {
					if target := el.liveOwner(pl.Owner(dep)); target >= 0 && target != e.rank {
						e.comm.Request(target, vtag)
					}
				}
			}
		}
		e.remaining[idx] = rem

		// Replay buffer for the output tile: the first adopted writer
		// regenerates it from gen; a chain cut below the first writer seeds
		// it from the received predecessor version; an adopted previous
		// writer created it in its own step.
		if e.tiles[otile] == nil {
			if selfPrev < 0 {
				e.tiles[otile] = e.gen(pl.TileCoords(otile))
			} else if _, _, same := sameSide(selfPrev); !same {
				if !el.holds(selfPrev) {
					panic(fmt.Sprintf("runtime: node %d: writer chain of %v cut without predecessor %v at hand",
						e.rank, pl.Task(pt), e.tagOf(selfPrev)))
				}
				e.tiles[otile] = e.recv[e.slotOf(selfPrev)].Payload.Clone()
			}
		}

		// Input references for this node, from the original owner's: a
		// tile of that node names the version its latest writer among the
		// dependencies produced (or the initial contents), a slot of that
		// node names its producer.
		refs := make([]int32, 0, len(pl.Inputs(pt)))
		for _, ref := range pl.Inputs(pt) {
			tl, producer := ref, int32(-1)
			if ref < 0 {
				producer = pl.SlotProducer(^ref)
				tl = pl.Out(producer)
			} else {
				for _, dep := range pl.Deps(pt) {
					if pl.Out(dep) == tl && (producer < 0 || pl.Version(dep) > pl.Version(producer)) {
						producer = dep
					}
				}
			}
			if producer < 0 {
				// Initial contents — the plan guarantees only a tile's owner
				// reads those, so this is a tile of the adopted rank:
				// regenerate it deterministically.
				if e.tiles[tl] == nil {
					e.tiles[tl] = e.gen(pl.TileCoords(tl))
				}
				refs = append(refs, tl)
				continue
			}
			li, here, same := sameSide(producer)
			if same || tl == otile {
				// In-chain: read the replayed in-place buffer, aliased with
				// the writer chain exactly as on the original owner — or the
				// seeded buffer of a chain cut, which holds this version.
				refs = append(refs, tl)
				continue
			}
			// Snapshot read: a version produced here on the other side
			// (stashed from the published cache) or a remote version
			// (recv-held or awaited).
			s := el.slotFor(producer)
			refs = append(refs, ^s)
			e.readers[s]++
			if here && el.completed[li] {
				el.stashPublished(e.tagOf(producer), s)
			}
		}
		el.at(idx).ins = refs

		if rem == 0 {
			e.pushReady(idx)
		}
	}
	return len(added)
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
