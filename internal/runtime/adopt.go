// Elastic recovery: ownership migration off dead nodes, and speculative
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

// peersSettled reports whether every peer has announced completion or death —
// the exit condition of the elastic barrier. A node's own doneSent already
// set peerDone[rank].
func (e *engine) peersSettled() bool {
	for r := range e.peerDone {
		if r == e.rank {
			continue
		}
		if !e.peerDone[r] && !e.dead[r] {
			return false
		}
	}
	return true
}

// onNote handles a membership notice from the out-of-band plane.
func (e *engine) onNote(msg cluster.Message) {
	if !e.elastic {
		return
	}
	switch msg.Note {
	case cluster.NoteDone:
		e.peerDone[msg.NoteRank] = true
	case cluster.NoteDown:
		if msg.NoteRank == e.rank {
			// A peer presumed us dead — a false positive, since we are
			// demonstrably alive. Keep computing: the adopter's replay
			// produces bit-identical duplicates of everything we publish,
			// so the split view converges idempotently.
			return
		}
		e.markDead(msg.NoteRank, false)
	}
}

// liveOwner maps a rank through the adoption chain to whoever now produces
// (and re-serves) its tile versions: the rank itself while alive, its adopter
// once dead, or -1 when a dead rank has no adopter yet.
func (e *engine) liveOwner(rank int) int {
	if !e.elastic {
		return rank
	}
	for e.dead[rank] {
		next := e.adoptedBy[rank]
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
func (e *engine) markDead(rank int, gossip bool) {
	if rank == e.rank || e.dead[rank] {
		return
	}
	e.dead[rank] = true
	if gossip {
		e.comm.Notify(cluster.NoteDown, rank)
	}
	adopter := hetero.Fastest(e.speeds, func(r int) bool { return !e.dead[r] }, e.comm.Size())
	e.adoptedBy[rank] = adopter
	e.fault("node-down", rank, adopter, fmt.Sprintf("adopter %d", adopter))
	// The dead node's delivery debts transfer to its adopter: restart the
	// retry budget of every version the dead node owed us, so the countdown
	// that condemned the corpse is not held against the heir while it
	// replays.
	now := time.Now()
	for tag, p := range e.pending {
		if e.owner(int(tag.I), int(tag.J)) == rank {
			p.attempts, p.silent = 0, 0
			p.backoff = e.arrival
			p.deadline = now.Add(e.arrival)
		}
	}
	if adopter == e.rank && !e.peerDone[rank] {
		// A rank that announced completion before being presumed dead left a
		// complete published cache behind; only an incomplete rank's tasks
		// need re-running.
		e.adoptNode(rank)
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
func (e *engine) liveDsts(pt int32, adopted bool) []int {
	origOwner := -1
	if adopted {
		origOwner = e.pl.Owner(pt)
	}
	live := e.dstScratch[:0]
next:
	for _, rank := range e.pl.Dsts(pt) {
		dst := e.liveOwner(rank)
		if dst == e.rank || dst < 0 {
			continue
		}
		if adopted && dst == origOwner && !e.dead[origOwner] {
			continue
		}
		for _, have := range live {
			if have == dst {
				continue next
			}
		}
		live = append(live, dst)
	}
	e.dstScratch = live
	return live
}

// adoptNode migrates the dead rank's entire task set — its share of the plan
// — onto this node. The whole set, not just tasks with unreceived outputs,
// because this node cannot know which outputs other consumers are still
// missing; replaying everything is always safe (duplicates drop idempotently)
// and keeps the migration decision local.
func (e *engine) adoptNode(rank int) {
	lo, hi := e.pl.Tasks(rank)
	tasks := make([]int32, 0, hi-lo)
	for t := lo; t < hi; t++ {
		tasks = append(tasks, t)
	}
	n := e.adoptTasks(tasks, false)
	e.fault("adopt", e.rank, rank, fmt.Sprintf("%d tasks", n))
}

// adoptChain speculatively adopts the producer chain of one overdue tile
// version whose owner is alive but lagging: the closure of the producer's
// ancestors within the laggard's own tasks, cut wherever a version is
// already at hand in recv. The replay runs at demoted priority
// (sched.Demote) so it never starves this node's own critical path, and its
// outputs are never sent back to the laggard.
func (e *engine) adoptChain(tag cluster.Tag) {
	root := e.pl.Producer(tag.I, tag.J, tag.V)
	if root < 0 {
		return
	}
	lag := e.pl.Owner(root)
	visited := make(map[int32]bool)
	var chain []int32
	var walk func(t int32)
	walk = func(t int32) {
		if visited[t] {
			return
		}
		visited[t] = true
		if _, mine := e.local(t); mine {
			return // native, or adopted by an earlier migration
		}
		for _, dep := range e.pl.Deps(t) {
			if e.pl.Owner(dep) != lag {
				continue // non-laggard inputs resolve via recv or Request
			}
			if e.holds(dep) {
				continue // payload at hand: the chain cuts here
			}
			walk(dep)
		}
		chain = append(chain, t) // post-order: dependencies first
	}
	walk(root)
	if len(chain) == 0 {
		return
	}
	n := e.adoptTasks(chain, true)
	e.fault("speculate", e.rank, lag, fmt.Sprintf("%d tasks for %v", n, tag))
	// Every tag the chain will produce locally stops escalating its (alive)
	// owner toward presumed death: the replay is already racing the wire.
	for _, t := range chain {
		if p := e.pending[e.tagOf(t)]; p != nil {
			p.speculated = true
		}
	}
}

// holds reports whether plan task t's output version is retained in recv.
func (e *engine) holds(t int32) bool {
	s := e.slotOf(t)
	return s >= 0 && e.recv[s].Payload != nil
}

// slotFor returns the local slot of plan task t's output version, appending
// one when neither the plan nor an earlier adoption gave this node any: an
// adopted task may consume a version that was never addressed here.
func (e *engine) slotFor(t int32) int32 {
	if s := e.slotOf(t); s >= 0 {
		return s
	}
	s := int32(len(e.recv))
	e.recv = append(e.recv, cluster.Message{})
	e.readers = append(e.readers, 0)
	e.fed = append(e.fed, false)
	e.xslot[t] = s
	return s
}

// replayTile returns the local index of this node's replay buffer for an
// adopted plan tile, reserving an empty one on first use.
func (e *engine) replayTile(tl int32) int32 {
	k, ok := e.xtile[tl]
	if !ok {
		k = int32(len(e.tiles))
		e.tiles = append(e.tiles, nil)
		e.xtile[tl] = k
	}
	return k
}

// stashPublished materializes a version this node itself published as a
// synthetic arrival in local slot s, so an adopted consumer reads the
// immutable snapshot instead of the live in-place buffer (which later
// writers advance). The version is guaranteed cached: a task on another
// node consumed it, so it was broadcast — and every broadcast is
// snapshotted.
func (e *engine) stashPublished(vtag cluster.Tag, s int32) {
	if e.recv[s].Payload != nil {
		return
	}
	e.pubMu.Lock()
	cached := e.published[vtag]
	e.pubMu.Unlock()
	if cached == nil {
		panic(fmt.Sprintf("runtime: node %d: adopted task needs local version %v that was never published", e.rank, vtag))
	}
	e.retain(s, cluster.Message{From: e.rank, To: e.rank, Tag: vtag, Payload: cached})
	e.seen[vtag] = true
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
func (e *engine) fulfillLocal(pt int32, netTag cluster.Tag, out *tile.Tile) {
	if e.seen[netTag] {
		return // the version arrived over the wire first; waiters were fed then
	}
	s := e.slotOf(pt)
	if s < 0 {
		return
	}
	waiting := len(e.xwait[s]) > 0 ||
		(!e.fed[s] && int(s) < e.nslot && len(e.pl.Waiters(e.slotLo+s)) > 0)
	if !waiting && e.readers[s] == 0 {
		return
	}
	e.seen[netTag] = true
	if e.readers[s] > 0 && e.recv[s].Payload == nil {
		// Snapshot: out is advanced in place by the tile's later writers.
		e.retain(s, cluster.Message{From: e.rank, To: e.rank, Tag: netTag, Payload: out.Clone()})
	}
	e.feed(s)
	if p, ok := e.pending[netTag]; ok {
		if p.attempts > 0 {
			e.recovered++
		}
		delete(e.pending, netTag)
	}
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
func (e *engine) adoptTasks(tasks []int32, demote bool) int {
	if e.xidx == nil {
		e.xidx = make(map[int32]int)
		e.xtile = make(map[int32]int32)
		e.xslot = make(map[int32]int32)
		e.xwait = make(map[int32][]int)
	}
	pl := e.pl
	added := make([]int, 0, len(tasks))
	for _, pt := range tasks {
		if _, ok := e.local(pt); ok {
			continue
		}
		idx := e.n + len(e.xtask)
		e.xtask = append(e.xtask, pt)
		e.xidx[pt] = idx
		key := sched.Band(pl.Key(pt), e.band)
		if demote {
			key = sched.Demote(key)
		}
		e.xkey = append(e.xkey, key)
		e.xins = append(e.xins, nil)
		e.remaining = append(e.remaining, 0)
		e.completed = append(e.completed, false)
		e.total++
		added = append(added, idx)
	}
	now := time.Now()
	for _, idx := range added {
		pt := e.task(idx)
		from, otile := pl.Owner(pt), pl.Out(pt)
		// sameSide: produced here by a task adopted from the same node.
		sameSide := func(t int32) (li int, here, same bool) {
			li, here = e.local(t)
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
				if !e.completed[li] {
					rem++
				}
			case !here && pl.Out(dep) == otile:
				// Chain cut below this writer: the received predecessor
				// version seeds the replay buffer (below); nothing to await.
			case e.holds(dep):
				// Payload at hand.
			case here && e.completed[li]:
				// Already produced here on the other side: the input sweep
				// below stashes its published snapshot.
			default:
				// Await it like a network arrival: fed through fulfillLocal
				// when a task of the other side produces it here, otherwise
				// requested immediately — in the original schedule this
				// version may never have been addressed to us, so no
				// broadcast is coming.
				s := e.slotFor(dep)
				e.xwait[s] = append(e.xwait[s], idx)
				rem++
				vtag := e.tagOf(dep)
				delete(e.seen, vtag) // let a re-requested copy back in
				if !here && e.pending[vtag] == nil {
					e.pending[vtag] = &pendingWait{
						deadline:   now.Add(e.arrival),
						backoff:    e.arrival,
						speculated: demote,
					}
					if target := e.liveOwner(pl.Owner(dep)); target >= 0 && target != e.rank {
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
		if k := e.replayTile(otile); e.tiles[k] == nil {
			if selfPrev < 0 {
				e.tiles[k] = e.gen(pl.TileCoords(otile))
			} else if _, _, same := sameSide(selfPrev); !same {
				if !e.holds(selfPrev) {
					panic(fmt.Sprintf("runtime: node %d: writer chain of %v cut without predecessor %v at hand",
						e.rank, pl.Task(pt), e.tagOf(selfPrev)))
				}
				e.tiles[k] = e.recv[e.slotOf(selfPrev)].Payload.Clone()
			}
		}

		// Input references in local indices, from the original owner's: a
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
				k := e.replayTile(tl)
				if e.tiles[k] == nil {
					e.tiles[k] = e.gen(pl.TileCoords(tl))
				}
				refs = append(refs, k)
				continue
			}
			li, here, same := sameSide(producer)
			if same || tl == otile {
				// In-chain: read the replayed in-place buffer, aliased with
				// the writer chain exactly as on the original owner — or the
				// seeded buffer of a chain cut, which holds this version.
				refs = append(refs, e.replayTile(tl))
				continue
			}
			// Snapshot read: a version produced here on the other side
			// (stashed from the published cache) or a remote version
			// (recv-held or awaited).
			s := e.slotFor(producer)
			refs = append(refs, ^s)
			e.readers[s]++
			if here && e.completed[li] {
				e.stashPublished(e.tagOf(producer), s)
			}
		}
		e.xins[idx-e.n] = refs

		if rem == 0 {
			e.pushReady(idx)
		}
	}
	return len(added)
}
