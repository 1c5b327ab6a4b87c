package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/plan"
	"anybc/internal/sched"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

type event struct {
	// Exactly one of completed/msg is meaningful. err carries the kernel
	// failure of the completed task, if any.
	completed int // local task index, or -1
	err       error
	msg       cluster.Message
}

// engine is one node's core; whatever reacts to faults lives in the three
// layers at the bottom of the struct (see the package comment).
type engine struct {
	rank    int
	comm    *cluster.Comm
	pl      *plan.Plan // shared, read-only
	b       int
	kern    Kernel
	workers int
	band    int // cross-job priority band applied to every task key
	rec     *trace.Recorder
	epoch   time.Time

	// This node's share of the plan: tasks [lo, lo+n), tiles from tileLo,
	// slots from slotLo. Every per-run table below is a flat slice indexed by
	// (plan index − range start); local task indices >= n and slot indices
	// past the plan's ranges belong to the elastic layer, which appends to the
	// same slices — and stretches tiles over the whole plan (tileLo = 0), so
	// an adopted tile keeps its plan index.
	lo, tileLo, slotLo int32
	inLo               int32 // plan.InputBase(lo): where this node's share of inbuf starts
	n                  int
	remaining          []int32
	// tiles holds the owned tiles: the in-place buffers the owner's writer
	// chain updates. recv holds the received remote version of each slot,
	// retained (and its message released back to the cluster pool) until
	// readers[slot] consumers have run; fed marks slots whose plan waiters
	// were released, so a re-delivery never releases them twice. held counts
	// the retained slots.
	tiles   []*tile.Tile
	recv    []cluster.Message
	readers []int32
	fed     []bool
	nslot   int // slots the plan gives this node
	held    int
	inbuf   []*tile.Tile // one flat backing array for every task's kernel-input slice

	// ready is the node's dispatch queue: the shared critical-path priority
	// heap of package sched, keyed by the plan's per-task keys.
	ready sched.Heap

	flops      float64
	ownedTiles int
	recvTotal  int
	peakTiles  int

	// disp fans dispatched jobs out to the worker goroutines through
	// per-worker deques with stealing; busy accumulates per-slot kernel
	// nanoseconds (each slot writes only its own entry, read after the
	// workers join).
	disp *dispatcher
	busy []int64

	// Scheduler observability (Report.Sched). stallNanos accumulates the
	// workers' starved wall-clock (atomically — every worker adds its own
	// wait spans); the report divides by the worker count to get the
	// idle-weighted StallSeconds.
	stallNanos atomic.Int64
	readyPeak  int
	dupDrops   int
	dispatched map[dag.Kind]int
	hops       relayLedger // tree-broadcast relays fire once per tag, on every engine

	res   *resilience     // re-request protocol; nil unless ArrivalTimeout > 0
	el    *elastic        // death tracking and adoption; nil unless Elastic
	crash *crashInjection // nil unless the chaos plan kills this rank
}

// newEngine allocates rank's per-run mutable state, sized from its share of
// the plan, and builds exactly the layers the options arm; opt must be
// normalized. Nothing here walks the graph.
func newEngine(rank int, comm *cluster.Comm, pl *plan.Plan,
	b int, gen func(i, j int) *tile.Tile, kern Kernel, opt Options, epoch time.Time) *engine {

	lo, hi := pl.Tasks(rank)
	tileLo, tileHi := pl.Tiles(rank)
	slotLo, slotHi := pl.Slots(rank)
	e := &engine{
		rank:       rank,
		comm:       comm,
		pl:         pl,
		b:          b,
		kern:       kern,
		workers:    opt.Workers,
		band:       opt.PriorityBand,
		rec:        opt.Recorder,
		epoch:      epoch,
		lo:         lo,
		tileLo:     tileLo,
		slotLo:     slotLo,
		inLo:       pl.InputBase(lo),
		n:          int(hi - lo),
		remaining:  make([]int32, hi-lo),
		tiles:      make([]*tile.Tile, tileHi-tileLo),
		recv:       make([]cluster.Message, slotHi-slotLo),
		readers:    append([]int32(nil), pl.SlotReaders(slotLo, slotHi)...),
		fed:        make([]bool, slotHi-slotLo),
		nslot:      int(slotHi - slotLo),
		inbuf:      make([]*tile.Tile, pl.InputBase(hi)-pl.InputBase(lo)),
		dispatched: make(map[dag.Kind]int),
		ready:      sched.NewHeap(sched.CriticalPath.Tie()),
		disp:       newDispatcher(opt.Workers),
		busy:       make([]int64, opt.Workers),
	}
	for t := lo; t < hi; t++ {
		e.remaining[t-lo] = pl.NumDeps(t)
	}
	for tl := tileLo; tl < tileHi; tl++ {
		e.tiles[tl-tileLo] = gen(pl.TileCoords(tl))
	}
	e.ownedTiles = len(e.tiles)
	e.peakTiles = e.ownedTiles
	if opt.ArrivalTimeout > 0 {
		e.res = newResilience(e, opt)
	}
	if opt.Elastic {
		e.el = newElastic(e, gen, opt)
	}
	if opt.Chaos != nil {
		if at := opt.Chaos.CrashTask(rank); at >= 0 {
			e.crash = &crashInjection{plan: opt.Chaos, at: at}
		}
	}
	return e
}

// task returns the plan task behind local task idx: one of this node's own,
// or one it adopted.
func (e *engine) task(idx int) int32 {
	if idx < e.n {
		return e.lo + int32(idx)
	}
	return e.el.at(idx).pt
}

// key returns the dispatch key of local task idx in this run's priority band.
func (e *engine) key(idx int) int64 {
	if idx < e.n {
		return sched.Band(e.pl.Key(e.lo+int32(idx)), e.band)
	}
	return e.el.at(idx).key
}

// tagOf returns the versioned wire tag of plan task t's output.
func (e *engine) tagOf(t int32) cluster.Tag {
	i, j := e.pl.TileCoords(e.pl.Out(t))
	return cluster.Tag{I: int32(i), J: int32(j), V: e.pl.Version(t)}
}

// tileOf returns this node's buffer of a plan tile — one it owns, or a
// replay buffer of a tile it adopted (the elastic layer stretches the tile
// table over the whole plan) — or nil when it holds none.
func (e *engine) tileOf(tl int32) *tile.Tile {
	if k := tl - e.tileLo; k >= 0 && int(k) < len(e.tiles) {
		return e.tiles[k]
	}
	return nil
}

// slotOf returns the local slot holding plan task t's output version on this
// node, or -1 when nothing here awaits it.
func (e *engine) slotOf(t int32) int32 {
	if s := e.pl.SlotAt(t, e.rank); s >= 0 {
		return s - e.slotLo
	}
	if e.el != nil {
		return e.el.slotOf(t)
	}
	return -1
}

// inputs returns the input references of local task idx and the bases its
// tile (ref >= 0) and slot (^ref) indices are relative to: plan indices for
// a native task, local ones for an adopted task.
func (e *engine) inputs(idx int) (refs []int32, tileBase, slotBase int32) {
	if idx < e.n {
		return e.pl.Inputs(e.lo + int32(idx)), e.tileLo, e.slotLo
	}
	return e.el.at(idx).ins, 0, 0
}

// feed releases everything waiting on local slot s: once, the tasks the plan
// lists for it, and whatever adoption registered since.
func (e *engine) feed(s int32) {
	if !e.fed[s] {
		e.fed[s] = true
		if int(s) < e.nslot {
			for _, t := range e.pl.Waiters(e.slotLo + s) {
				e.release(int(t - e.lo))
			}
		}
	}
	if e.el != nil {
		e.el.feedWaiters(s)
	}
}

// retain stores msg as local slot s's received copy.
func (e *engine) retain(s int32, msg cluster.Message) {
	e.recv[s] = msg
	e.held++
	if held := e.ownedTiles + e.held; held > e.peakTiles {
		e.peakTiles = held
	}
}

// drop releases local slot s's received copy, if one is retained.
func (e *engine) drop(s int32) {
	if e.recv[s].Payload != nil {
		e.recv[s].Release()
		e.recv[s] = cluster.Message{}
		e.held--
	}
}

// run executes this node's share of the graph and returns when every owned
// task has completed, or promptly once the run aborts: a local kernel error
// poisons the cluster and is returned; a poisoned cluster observed while work
// is still outstanding means a peer failed, and ErrPeerAborted is returned.
// With the elastic layer armed the exit condition is its completion barrier,
// not the local count (see elastic.barrier).
func (e *engine) run() error {
	if e.n == 0 && e.res == nil {
		// Nothing to run. (An armed node still enters the loop: its post-loop
		// server and, under elastic, its adoptable capacity must exist.)
		return nil
	}

	events := make(chan event, e.workers+4)
	recvDone := e.receive(events)
	var workerWG sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		workerWG.Add(1)
		go func(slot int) {
			defer workerWG.Done()
			e.work(slot, events)
		}(w)
	}

	for idx, rem := range e.remaining {
		if rem == 0 {
			e.pushReady(idx)
		}
	}
	// The tick channel stays nil — and its select case dead — unless the
	// resilience layer has arrival clocks to sweep.
	var tick <-chan time.Time
	if e.res != nil {
		if ticker := e.res.start(); ticker != nil {
			defer ticker.Stop()
			tick = ticker.C
		}
	}

	feedCap := e.feedCap()
	var abortErr error
	aborted := false
	recvClosed := recvDone // nilled after firing so the select stops spinning
	done, inflight := 0, 0
	// abortLocal handles this node's own failures (kernel error, protocol
	// violation, injected crash): dispatching stops and queued-but-unstarted
	// jobs are purged from the deques — they will never run, so the in-flight
	// and per-kind dispatch counts drop with them — and only already-running
	// kernels are awaited. A *peer* abort deliberately does not purge: jobs already
	// dealt to the deques were dispatched before the poison arrived and still
	// run (completions suppressed), so a node that was about to fail on its
	// own reports its kernel error instead of the bystander sentinel
	// regardless of how goroutine scheduling interleaved push and abort.
	abortLocal := func(err error) {
		aborted = true
		abortErr = err
		for _, jb := range e.disp.purge() {
			inflight--
			e.dispatched[jb.task.Kind]--
		}
	}
	// fail is a node failure the whole run must see — a kernel error, a
	// protocol violation, an exhausted retry budget, an injected crash without
	// elastic recovery: poison the cluster so peers blocked on tiles we will
	// never produce wake up, then wind down locally.
	fail := func(err error) {
		e.comm.Abort()
		abortLocal(err)
	}
	for {
		if !aborted {
			for !e.ready.Empty() && inflight < feedCap {
				if e.crash != nil && e.crash.due(e.rank) {
					if e.el != nil {
						// Crashing is not an error under elastic recovery: the
						// node falls silent and the survivors adopt its work.
						e.el.die(e.crash.at)
						abortLocal(nil)
					} else {
						fail(fmt.Errorf("node %d died before its owned task %d: %w",
							e.rank, e.crash.at, chaos.ErrInjectedCrash))
					}
					break
				}
				e.dispatch(int(e.ready.Pop()))
				inflight++
			}
			// len(remaining) is the completion target: the owned tasks plus
			// whatever the elastic layer adopted since.
			if !aborted && done == len(e.remaining) && (e.el == nil || e.el.barrier()) {
				break
			}
		}
		if aborted && inflight == 0 {
			// Abort: nothing running anymore, nothing will be dispatched.
			break
		}
		select {
		case ev := <-events:
			switch {
			case ev.completed < 0:
				if aborted {
					ev.msg.Release()
				} else if err := e.onArrival(ev.msg); err != nil {
					// Protocol violation (conflicting duplicate delivery):
					// fail this node descriptively instead of panicking.
					fail(err)
				}
			default:
				inflight--
				done++
				if ev.err != nil {
					err := fmt.Errorf("%v: %w", e.pl.Task(e.task(ev.completed)), ev.err)
					if !aborted {
						// First local kernel failure: the root cause. The
						// failed task's output is never published. A kernel
						// error is a correctness failure, not a crash —
						// elastic recovery never masks it.
						fail(err)
					} else if errors.Is(abortErr, ErrPeerAborted) {
						// This node failed too, it just noticed the peer's
						// poison first: its own kernel error is the better
						// root cause than the bystander sentinel.
						abortErr = err
					}
				} else if !aborted {
					e.onComplete(ev.completed)
				}
				// Completions after the abort are suppressed entirely: no
				// successor release, no sends.
			}
		case <-recvClosed:
			recvClosed = nil
			if !aborted {
				// The cluster was poisoned while we still have unfinished
				// work: a peer failed. No purge — already-dispatched jobs
				// drain through the workers (see abortLocal), and their
				// completions bring inflight to zero.
				aborted = true
				abortErr = ErrPeerAborted
			}
		case <-tick:
			if !aborted {
				if err := e.res.onTick(); err != nil {
					// Retry budget exhausted on a non-elastic run.
					fail(err)
				}
			}
		}
	}
	e.disp.close()
	workerWG.Wait()
	// An aborted (or cancelled, or crashed) run leaves received tiles
	// retained in recv whose consumer tasks will never execute; the workers
	// are joined, so release them here or their pooled buffers leak — on a
	// shared cluster, permanently. A completed run's last-reader release
	// already emptied every slot, making this a no-op.
	for s := range e.recv {
		e.drop(int32(s))
	}
	go e.absorb(events, recvDone, aborted)
	return abortErr
}

// feedCap bounds dispatched-but-unfinished work: with several workers each
// may hold one running task plus one prefetched deque entry, giving idle
// workers something to steal; a single worker gets no prefetch, so its
// dispatch order is exactly the heap's priority order (the sim-vs-real
// crosscheck pins it).
func (e *engine) feedCap() int {
	if e.workers == 1 {
		return 1
	}
	return 2 * e.workers
}

// receive starts the goroutine that forwards network messages into the event
// loop; the returned channel closes once the cluster itself has been closed
// (shutdown or abort) and the mailbox is drained.
func (e *engine) receive(events chan<- event) <-chan struct{} {
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			msg, ok := e.comm.Recv()
			if !ok {
				return
			}
			events <- event{completed: -1, msg: msg}
		}
	}()
	return recvDone
}

// work is one worker slot's loop: it pulls jobs from the stealing dispatcher
// — own deque front first, the coldest entry of the fullest peer deque when
// starved — and reports each kernel's outcome as an event. A blocked take
// that eventually yields a job is a starvation span, charged to the node's
// idle-weighted stall account; the final wait that ends in shutdown is not
// (the node is done, not starved).
func (e *engine) work(slot int, events chan<- event) {
	for {
		jb, ok, waitStart, waitEnd := e.disp.take(slot)
		if !ok {
			return
		}
		if !waitStart.IsZero() {
			e.noteStall(waitStart, waitEnd)
		}
		start := time.Now()
		// The task rides in the job: elastic adoption grows the engine's task
		// tables from the event loop while workers run.
		err := e.kern(jb.task, jb.out, jb.inputs)
		end := time.Now()
		e.busy[slot] += end.Sub(start).Nanoseconds()
		if e.rec != nil {
			e.rec.RecordTask(e.rank, slot, jb.task,
				start.Sub(e.epoch).Seconds(), end.Sub(e.epoch).Seconds())
		}
		events <- event{completed: jb.idx, err: err}
	}
}

// dispatch moves local task idx from the priority heap to the worker deques,
// resolving its input tiles here in the event loop (the recv and tiles tables
// are event-loop-owned).
func (e *engine) dispatch(idx int) {
	pt := e.task(idx)
	t := e.pl.Task(pt)
	e.dispatched[t.Kind]++
	out := e.tileOf(e.pl.Out(pt))
	if out == nil {
		panic(fmt.Sprintf("runtime: node %d: output tile of %v missing", e.rank, t))
	}
	refs, tileBase, slotBase := e.inputs(idx)
	var inputs []*tile.Tile
	if idx < e.n {
		at := int(e.pl.InputBase(pt) - e.inLo)
		inputs = e.inbuf[at : at+len(refs) : at+len(refs)]
	} else {
		inputs = make([]*tile.Tile, len(refs))
	}
	for k, ref := range refs {
		var in *tile.Tile
		if ref < 0 {
			in = e.recv[^ref-slotBase].Payload
		} else {
			in = e.tiles[ref-tileBase]
		}
		if in == nil {
			panic(fmt.Sprintf("runtime: node %d: input %d of %v missing", e.rank, k, t))
		}
		inputs[k] = in
	}
	e.disp.push(job{idx: idx, task: t, out: out, inputs: inputs})
}

// absorb outlives run: it releases late messages until the cluster is closed,
// so remote senders and the receiver goroutine can always make progress. With
// resilience armed it doubles as the late request server — a consumer slower
// than us may still re-request tile versions we published, and must get them
// even though our event loop is gone — and signals RunPlan once the last
// queued request is answered. It touches only the resilience layer's
// published cache, the relay ledger and the cluster — never the recorder or
// the engine fields the report reads concurrently. crashed covers every abort, including an elastic death: a
// dead node answers no requests and relays nothing — that silence is exactly
// what the survivors' escalation and adoption must overcome.
func (e *engine) absorb(events chan event, recvDone <-chan struct{}, crashed bool) {
	if e.res != nil {
		defer close(e.res.served)
	}
	go func() {
		<-recvDone
		close(events)
	}()
	for ev := range events {
		switch msg := ev.msg; {
		case msg.Note != cluster.NoteNone:
		case crashed:
			msg.Release()
		case msg.Req:
			if e.res != nil {
				e.res.answer(msg, false)
			}
		default:
			// A tree-broadcast hop that lands after our event loop finished
			// still carries its subtree's deliveries: relay it before
			// releasing our own share, so a fast consumer never strands the
			// slow subtree behind it.
			e.relay(msg)
			msg.Release()
		}
	}
}

// fault puts one injected fault or recovery action on the run's trace, when
// one is being recorded. Event-loop only: the post-loop absorber must not
// touch the recorder.
func (e *engine) fault(kind string, from, to int, what string) {
	if e.rec != nil {
		e.rec.RecordFault(kind, from, to, what, time.Since(e.epoch).Seconds())
	}
}

// noteStall charges one worker's starved interval to the node's stall
// account: StallSeconds integrates idle-worker-time weighted by 1/workers,
// so a node with one of four workers starved accrues a quarter of what a
// fully idle node does (the pre-weighting accounting charged full wall-clock
// whenever any worker was free). Called from worker goroutines; the nanos
// accumulate atomically and the recorder locks internally.
func (e *engine) noteStall(start, end time.Time) {
	e.stallNanos.Add(end.Sub(start).Nanoseconds())
	if e.rec != nil {
		e.rec.RecordStall(e.rank,
			start.Sub(e.epoch).Seconds(), end.Sub(e.epoch).Seconds(),
			1/float64(e.workers))
	}
}

// relay honors msg's tree-broadcast Forward obligation, exactly once per tag
// however often the network repeats the hop (see relayLedger for why this is
// not the payload dedup).
func (e *engine) relay(msg cluster.Message) {
	if len(msg.Forward) > 0 && e.hops.first(msg.Tag) {
		e.comm.Forward(msg)
	}
}

// release resolves one dependency of local task idx — a local predecessor's
// completion or an awaited version's arrival — and queues the task once none
// remain.
func (e *engine) release(idx int) {
	if e.remaining[idx]--; e.remaining[idx] == 0 {
		e.pushReady(idx)
	}
}

// pushReady queues local task idx for dispatch under its critical-path key
// and tracks the ready-queue high-water mark.
func (e *engine) pushReady(idx int) {
	e.ready.Push(e.key(idx), int32(idx))
	if n := e.ready.Len(); n > e.readyPeak {
		e.readyPeak = n
	}
}

// onComplete publishes a finished task: releases local successors, sends the
// output tile version once to every distinct remote consumer node — the
// plan's static destination list, passed to the cluster as is unless the
// elastic layer filters it through what only the run knows — and releases
// received tiles whose last local consumer just ran.
func (e *engine) onComplete(idx int) {
	pl, pt := e.pl, e.task(idx)
	e.flops += pl.Graph().Flops(pl.Task(pt), e.b)
	out := e.tileOf(pl.Out(pt))
	netTag := e.tagOf(pt)

	dsts := pl.Dsts(pt)
	hadRemote := len(dsts) > 0
	if idx < e.n {
		for _, s := range pl.Succs(pt) {
			e.release(int(s - e.lo))
		}
	}
	if e.el != nil {
		dsts, hadRemote = e.el.complete(idx, pt, netTag, out)
	}
	if len(dsts) > 0 {
		if len(dsts) == 1 && pl.Reduce(pt) {
			// Reduction partial: the accumulator's only remote consumer is the
			// combine on its binomial parent's node, a point-to-point shipment
			// counted as reduction traffic rather than a broadcast.
			e.comm.SendReduce(dsts[0], netTag, out)
		} else {
			// One broadcast, one clone: every consumer node shares the same
			// immutable payload (see cluster.SendAll).
			e.comm.SendAll(dsts, netTag, out)
		}
	}
	if e.res != nil && hadRemote {
		e.res.publish(netTag, out)
	}

	// Last-reader release: drop received copies this task consumed once no
	// other local task still needs them, returning their buffers to the
	// cluster pool.
	refs, _, slotBase := e.inputs(idx)
	for _, ref := range refs {
		if ref >= 0 {
			continue
		}
		s := ^ref - slotBase
		if e.readers[s]--; e.readers[s] <= 0 {
			e.drop(s)
		}
	}
}

// onArrival stores a received tile version and releases the tasks waiting on
// it. Versions no local task consumes (pure ordering dependencies) are
// dropped immediately; everything else is retained until its last consumer
// runs.
//
// The transport sends each tile version at most once per destination, but a
// re-delivery must not crash the node: an arrival whose tag is already
// retained is dropped idempotently when its payload matches the retained copy
// (counted in Report.Sched.DuplicateDrops), and reported as a descriptive
// error — surfaced through Run's joined node errors — when the payloads
// genuinely conflict, since then one of the two writes is wrong and the run
// cannot be trusted.
func (e *engine) onArrival(msg cluster.Message) error {
	if msg.Note != cluster.NoteNone {
		if e.el != nil {
			e.el.onNote(msg)
		}
		return nil
	}
	if msg.Req {
		// A consumer's re-request for a version we published (no payload).
		if e.res != nil {
			e.res.answer(msg, true)
		}
		return nil
	}
	// Relay before any payload dedup, so the subtree's arrivals pipeline
	// behind ours instead of behind our kernel work — and because a payload
	// duplicate may still owe its subtree a relay (see relayLedger).
	e.relay(msg)
	slot := int32(-1)
	if pt := e.pl.Producer(msg.Tag.I, msg.Tag.J, msg.Tag.V); pt >= 0 {
		slot = e.slotOf(pt)
	}
	if slot >= 0 && e.recv[slot].Payload != nil {
		identical := e.recv[slot].Payload.EqualApprox(msg.Payload, 0)
		msg.Release()
		if identical {
			e.dupDrops++
			return nil
		}
		return fmt.Errorf("conflicting duplicate of tile %v from node %d: payload differs from the retained copy", msg.Tag, msg.From)
	}
	if e.res != nil && !e.res.admit(msg.Tag, msg.From) {
		msg.Release()
		e.dupDrops++
		return nil
	}
	e.recvTotal++
	if e.rec != nil {
		e.rec.RecordMessage(msg.From, e.rank,
			msg.SentAt.Sub(e.epoch).Seconds(), time.Since(e.epoch).Seconds(),
			msg.Payload.Bytes())
	}
	if slot >= 0 && e.readers[slot] > 0 {
		e.retain(slot, msg)
	} else {
		msg.Release()
	}
	if slot >= 0 {
		e.feed(slot)
	}
	return nil
}
