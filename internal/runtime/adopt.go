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
	"anybc/internal/dag"
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
			p.attempts = 0
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

// adoptNode migrates the dead rank's entire task set onto this node. The
// whole set — not just tasks with unreceived outputs — because this node
// cannot know which outputs other consumers are still missing; replaying
// everything is always safe (duplicates drop idempotently) and keeps the
// migration decision local.
func (e *engine) adoptNode(rank int) {
	var tasks []dag.Task
	dag.ForEachTask(e.g, func(t dag.Task) {
		oi, oj := e.g.OutputTile(t)
		if e.owner(oi, oj) == rank {
			tasks = append(tasks, t)
		}
	})
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
	root, ok := e.producerOf(tag)
	if !ok {
		return
	}
	lag := e.owner(int(tag.I), int(tag.J))
	visited := make(map[int]bool)
	var chain []dag.Task
	var walk func(t dag.Task)
	walk = func(t dag.Task) {
		id := e.g.ID(t)
		if visited[id] {
			return
		}
		visited[id] = true
		if _, mine := e.localIdx[id]; mine {
			return // native, or adopted by an earlier migration
		}
		e.g.Dependencies(t, func(dep dag.Task) {
			di, dj := e.g.OutputTile(dep)
			if e.owner(di, dj) != lag {
				return // non-laggard inputs resolve via recv or Request
			}
			dtag := cluster.Tag{I: int32(di), J: int32(dj), V: e.ver[e.g.ID(dep)]}
			if _, held := e.recv[dtag]; held {
				return // payload at hand: the chain cuts here
			}
			walk(dep)
		})
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
		oi, oj := e.g.OutputTile(t)
		ptag := cluster.Tag{I: int32(oi), J: int32(oj), V: e.ver[e.g.ID(t)]}
		if p := e.pending[ptag]; p != nil {
			p.speculated = true
		}
	}
}

// producerOf returns the task producing the given versioned tag, building
// the tag→task index lazily on the first adoption (the happy path never pays
// for it).
func (e *engine) producerOf(tag cluster.Tag) (dag.Task, bool) {
	if e.taskByTag == nil {
		e.taskByTag = make(map[cluster.Tag]dag.Task, e.g.NumTasks())
		dag.ForEachTask(e.g, func(t dag.Task) {
			oi, oj := e.g.OutputTile(t)
			e.taskByTag[cluster.Tag{I: int32(oi), J: int32(oj), V: e.ver[e.g.ID(t)]}] = t
		})
	}
	t, ok := e.taskByTag[tag]
	return t, ok
}

// stashPublished materializes one of this node's own published versions as a
// synthetic arrival, so an adopted consumer reads the immutable snapshot
// instead of the live in-place buffer (which later native writers advance).
// The version is guaranteed cached: the node whose task was adopted consumed
// it remotely, so it was broadcast — and every broadcast is snapshotted.
func (e *engine) stashPublished(vtag cluster.Tag) {
	if _, held := e.recv[vtag]; held {
		return
	}
	e.pubMu.Lock()
	cached := e.published[vtag]
	e.pubMu.Unlock()
	if cached == nil {
		panic(fmt.Sprintf("runtime: node %d: adopted task needs local version %v that was never published", e.rank, vtag))
	}
	e.recv[vtag] = cluster.Message{From: e.rank, To: e.rank, Tag: vtag, Payload: cached}
	e.seen[vtag] = true
}

// fulfillLocal is the synthetic-arrival half of adoption: when a completed
// task's output version has same-node consumers that registered to await it
// as a network arrival (native tasks waiting on a now-adopted producer, or
// adopted tasks waiting on a native one), it stashes a snapshot into recv,
// marks the tag seen, and releases the waiters — exactly what onArrival
// would have done had the version crossed the wire. Waiters and pending are
// consumed here, so a stale copy arriving later (a pre-crash in-flight send,
// or a laggard finally answering) drops through the ordinary duplicate
// paths without double-decrementing any dependency count.
func (e *engine) fulfillLocal(netTag cluster.Tag, out *tile.Tile) {
	if e.seen[netTag] {
		return // the version arrived over the wire first; waiters were fed then
	}
	w := e.waiters[netTag]
	if len(w) == 0 && e.readers[netTag] == 0 {
		return
	}
	e.seen[netTag] = true
	if e.readers[netTag] > 0 {
		// Snapshot: out is advanced in place by the tile's later writers.
		e.recv[netTag] = cluster.Message{From: e.rank, To: e.rank, Tag: netTag, Payload: out.Clone()}
		if held := e.ownedTiles + len(e.recv); held > e.peakTiles {
			e.peakTiles = held
		}
	}
	for _, idx := range w {
		e.release(idx)
	}
	delete(e.waiters, netTag)
	if p, ok := e.pending[netTag]; ok {
		if p.attempts > 0 {
			e.recovered++
		}
		delete(e.pending, netTag)
	}
}

// adoptTasks wires the given tasks into this engine's scheduling state and
// returns how many were actually added (tasks already native or previously
// adopted are skipped). demote selects the speculative priority band.
//
// Pass 1 registers every task (so intra-set dependency resolution sees the
// whole closure regardless of order); pass 2 resolves each task's
// dependencies and input tiles:
//
//   - a dependency adopted here releases its consumer directly at completion
//     (both sides replay in place on the regenerated buffers);
//   - a native dependency feeds the adopted consumer a published snapshot —
//     immediately when already completed, via fulfillLocal otherwise;
//   - anything else is awaited exactly like a network arrival, with an
//     immediate Request because the version may never have been addressed to
//     this node in the original schedule.
func (e *engine) adoptTasks(tasks []dag.Task, demote bool) int {
	added := make([]int, 0, len(tasks))
	for _, t := range tasks {
		id := e.g.ID(t)
		if _, ok := e.localIdx[id]; ok {
			continue
		}
		idx := len(e.owned)
		e.owned = append(e.owned, t)
		e.localIdx[id] = idx
		e.adoptedSet[id] = true
		key := sched.Band(sched.Key(t), e.band)
		if demote {
			key = sched.Demote(key)
		}
		e.keys = append(e.keys, key)
		e.remaining = append(e.remaining, 0)
		e.completed = append(e.completed, false)
		e.ins = append(e.ins, nil)
		e.inbuf = append(e.inbuf, nil)
		e.total++
		added = append(added, idx)
	}
	now := time.Now()
	for _, idx := range added {
		t := e.owned[idx]
		oi, oj := e.g.OutputTile(t)
		outTag := cluster.Tag{I: int32(oi), J: int32(oj)}

		// Dependency accounting: how many release events this task awaits,
		// and through which path each arrives.
		var selfPrev dag.Task
		hasSelfPrev := false
		rem := int32(0)
		e.g.Dependencies(t, func(dep dag.Task) {
			did := e.g.ID(dep)
			di, dj := e.g.OutputTile(dep)
			if di == oi && dj == oj {
				hasSelfPrev = true
				selfPrev = dep
			}
			vtag := cluster.Tag{I: int32(di), J: int32(dj), V: e.ver[did]}
			if li, ok := e.localIdx[did]; ok {
				if e.adoptedSet[did] {
					// Same side: released directly when the producer
					// completes here (onComplete's same-side branch).
					if !e.completed[li] {
						rem++
					}
					return
				}
				// Native producer, adopted consumer: fed through
				// fulfillLocal at its completion; nothing to await if it
				// already ran (the snapshot is stashed by the input-tile
				// sweep below).
				if !e.completed[li] {
					e.waiters[vtag] = append(e.waiters[vtag], idx)
					rem++
				}
				return
			}
			if di == oi && dj == oj {
				// Chain cut below this writer: the received predecessor
				// version seeds the replay buffer (below); nothing to await.
				return
			}
			if _, held := e.recv[vtag]; held {
				return // payload at hand
			}
			// Await it like a network arrival, requesting immediately — in
			// the original schedule this version may never have been
			// addressed to us, so no broadcast is coming.
			e.waiters[vtag] = append(e.waiters[vtag], idx)
			rem++
			delete(e.seen, vtag) // let a re-requested copy back in
			if e.pending[vtag] == nil {
				e.pending[vtag] = &pendingWait{
					deadline:   now.Add(e.arrival),
					backoff:    e.arrival,
					speculated: demote,
				}
				if target := e.liveOwner(e.owner(di, dj)); target >= 0 && target != e.rank {
					e.comm.Request(target, vtag)
				}
			}
		})
		e.remaining[idx] = rem

		// Replay buffer for the output tile: the first adopted writer
		// regenerates it from gen; a chain cut below the first writer seeds
		// it from the received predecessor version; an adopted previous
		// writer leaves creation to its own step (it completes before this
		// task can dispatch, and dispatch resolves buffers lazily).
		if _, ok := e.tiles[outTag]; !ok {
			if !hasSelfPrev {
				e.tiles[outTag] = e.gen(oi, oj)
			} else if pid := e.g.ID(selfPrev); !e.adoptedSet[pid] {
				ptag := cluster.Tag{I: int32(oi), J: int32(oj), V: e.ver[pid]}
				m, held := e.recv[ptag]
				if !held {
					panic(fmt.Sprintf("runtime: node %d: writer chain of %v cut without predecessor %v at hand", e.rank, t, ptag))
				}
				e.tiles[outTag] = m.Payload.Clone()
			}
		}

		// Input references, in InputTiles visit order, mirroring newEngine:
		// reader counts are per input tile here, await registrations per
		// dependency above.
		var refs []inputRef
		e.g.InputTiles(t, func(i, j int) {
			base := cluster.Tag{I: int32(i), J: int32(j)}
			v, produced := dag.InputVersion(e.g, e.ver, t, i, j)
			if !produced {
				// Initial contents — prevalidate guarantees only a tile's
				// owner reads those, so this is a tile of the adopted rank:
				// regenerate it deterministically.
				if _, ok := e.tiles[base]; !ok {
					e.tiles[base] = e.gen(i, j)
				}
				refs = append(refs, inputRef{tag: base})
				return
			}
			vtag := cluster.Tag{I: int32(i), J: int32(j), V: v}
			producer, ok := e.producerOf(vtag)
			if !ok {
				panic(fmt.Sprintf("runtime: node %d: no producer for input %v of adopted %v", e.rank, vtag, t))
			}
			pid := e.g.ID(producer)
			if e.adoptedSet[pid] {
				// In-chain: read the replayed in-place buffer, aliased with
				// the writer chain exactly as on the original owner.
				refs = append(refs, inputRef{tag: base})
				return
			}
			if i == oi && j == oj {
				// Chain cut: the seeded replay buffer holds this version.
				refs = append(refs, inputRef{tag: base})
				return
			}
			// Snapshot read: a native version (stashed from the published
			// cache) or a remote version (recv-held or awaited).
			refs = append(refs, inputRef{remote: true, tag: vtag})
			e.readers[vtag]++
			if li, mine := e.localIdx[pid]; mine && e.completed[li] {
				e.stashPublished(vtag)
			}
			return
		})
		e.ins[idx] = refs
		e.inbuf[idx] = make([]*tile.Tile, len(refs))

		if rem == 0 {
			e.pushReady(idx)
		}
	}
	return len(added)
}
