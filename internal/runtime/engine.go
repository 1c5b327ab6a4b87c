package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/plan"
	"anybc/internal/sched"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// job is one resolved kernel execution: whoever pops a task looks its output
// and input tiles up under the node lock, so the kernel — which runs outside
// it — reads no engine state.
type job struct {
	t      int32  // plan task
	sh     *share // the share t runs in
	task   dag.Task
	out    *tile.Tile
	inputs []*tile.Tile
}

// share is one rank's per-run tables of the plan: the state a node needs to
// run that rank's static share of the graph. Each table is a flat slice
// indexed by (plan index − start of the rank's range): tasks from lo, tiles
// from tileLo, slots from slotLo, kernel inputs from inLo. A node runs its own
// share and, under elastic recovery, one per dead rank it adopted.
type share struct {
	lo, tileLo, slotLo, inLo int32
	remaining                []int32
	// tiles holds the rank's tiles: the in-place buffers its writer chains
	// update. recv holds the received remote version of each slot — its
	// Lease, not the message — retained until readers[slot] consumers have
	// run and then released: the last Release of a clone or a lent final tile
	// stops counting it as in flight. fed marks slots whose version was taken
	// in: the unfed ones are what the share still awaits (engine.awaits).
	tiles   []*tile.Tile
	recv    []cluster.Lease
	readers []int32
	fed     []bool
	inbuf   []*tile.Tile // one flat backing array for every task's kernel-input slice
}

// newShare allocates rank's per-run tables, sized from its share of the plan;
// the tiles are left for generate. Nothing here walks the graph.
func newShare(pl *plan.Plan, rank int) share {
	lo, hi := pl.Tasks(rank)
	tileLo, tileHi := pl.Tiles(rank)
	slotLo, slotHi := pl.Slots(rank)
	sh := share{
		lo:        lo,
		tileLo:    tileLo,
		slotLo:    slotLo,
		inLo:      pl.InputBase(lo),
		remaining: make([]int32, hi-lo),
		tiles:     make([]*tile.Tile, tileHi-tileLo),
		recv:      make([]cluster.Lease, slotHi-slotLo),
		readers:   append([]int32(nil), pl.SlotReaders(slotLo, slotHi)...),
		fed:       make([]bool, slotHi-slotLo),
		inbuf:     make([]*tile.Tile, pl.InputBase(hi)-pl.InputBase(lo)),
	}
	for t := lo; t < hi; t++ {
		sh.remaining[t-lo] = pl.NumDeps(t)
	}
	return sh
}

// tile returns the share's buffer of plan tile tl.
func (sh *share) tile(tl int32) *tile.Tile { return sh.tiles[tl-sh.tileLo] }

// release resolves one dependency of the share's plan task t — a same-share
// predecessor's completion or an awaited version's arrival — and reports
// whether none remain: the task is ready.
func (sh *share) release(t int32) bool {
	rem := &sh.remaining[t-sh.lo]
	*rem--
	return *rem == 0
}

// engine is one node's core; whatever reacts to faults lives in the two
// layers at the bottom of the struct (see the package comment).
type engine struct {
	rank    int
	comm    *cluster.Comm
	pl      *plan.Plan                // shared, read-only
	gen     func(i, j int) *tile.Tile // initial tile contents; see Run for its contract
	kern    Kernel
	workers int
	rec     *trace.Recorder
	epoch   time.Time

	// mu is the node. Every field below it, and everything the two layers
	// hold, is touched only with it held, and whoever holds it — a worker
	// publishing the task it just ran, the receiver delivering a message, run
	// taking a resilience tick — is the node's event loop for that moment.
	// Kernels and comm.Recv run outside it; the one lock ever taken under it is
	// a destination mailbox's (a send), never the other way round.
	mu sync.Mutex
	// Workers that found nothing ready sleep on cond; idle counts the sleepers
	// nobody has signalled yet. running counts kernels executing now, done the
	// tasks finished. stopped ends dispatch for good — this node failed or
	// died, or a peer did — with err what run reports. over is the end of the
	// run itself (see settle), stamped overAt; finished closes with it.
	cond          sync.Cond
	idle          int
	running, done int
	stopped, over bool
	err           error
	overAt        time.Time
	finished      chan struct{}
	drained       sync.WaitGroup // the receiver's: done once the closed mailbox is empty

	// This node's own share of the plan, held by value.
	share

	// ready is the node's dispatch queue: the shared critical-path priority
	// queue of package sched, keyed by the plan's per-task keys, holding plan
	// task indices.
	ready sched.Heap

	// ownedTiles counts the own share's tiles, held holds the tiles beyond
	// them — retained received copies and, under elastic, adopted shares'
	// replay buffers — and peakTiles is the high-water mark of the sum.
	ownedTiles int
	held       int
	recvTotal  int
	peakTiles  int

	// busy accumulates per-slot kernel nanoseconds: each worker writes only its
	// own entry, outside the lock, and it is read after the workers join.
	busy []int64

	// Scheduler observability (Report.Sched). stallNanos accumulates the
	// workers' idle spans; the report divides by the worker count to get the
	// idle-weighted StallSeconds.
	stallNanos int64
	readyPeak  int
	hops       relayLedger // tree-broadcast relays fire once per tag, on every engine

	// The chaos plan's crash injection: the node dies just before its pop
	// number crashAt (-1: never), pops counting the tasks popped so far —
	// Report.TasksPerNode.
	crashAt, pops int

	res *resilience // re-request protocol; nil unless ArrivalTimeout > 0
	el  *elastic    // death tracking and adoption; nil unless Elastic
}

// newEngine allocates rank's per-run mutable state and builds exactly the
// layers the options arm; opt must be normalized.
func newEngine(rank int, comm *cluster.Comm, pl *plan.Plan,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options, epoch time.Time) *engine {

	e := &engine{
		rank:     rank,
		comm:     comm,
		pl:       pl,
		gen:      gen,
		kern:     kern,
		workers:  opt.Workers,
		rec:      opt.Recorder,
		epoch:    epoch,
		share:    newShare(pl, rank),
		ready:    sched.NewHeap(sched.TieLIFO),
		busy:     make([]int64, opt.Workers),
		finished: make(chan struct{}),
		crashAt:  -1,
	}
	e.cond.L = &e.mu
	// The owned tiles themselves are generated by run, on the node's own
	// goroutine; they count as held from the start.
	e.ownedTiles = len(e.tiles)
	e.peakTiles = e.ownedTiles
	if opt.ArrivalTimeout > 0 {
		e.res = newResilience(e, opt)
	}
	if opt.Elastic {
		e.el = newElastic(e)
	}
	if opt.Chaos != nil {
		e.crashAt = opt.Chaos.CrashTask(rank)
	}
	return e
}

// generate fills share sh's tiles: the node's own or, for the elastic layer,
// a dead node's replay buffers. run calls it on the node's own goroutine
// rather than newEngine on the caller's: the P nodes generate their shares
// side by side, and a node that is done starts on its ready tasks while the
// others still generate — a tile version sent to one of those waits in its
// mailbox.
func (e *engine) generate(sh *share) {
	for k := range sh.tiles {
		sh.tiles[k] = e.gen(e.pl.TileCoords(sh.tileLo + int32(k)))
	}
}

// shareOf returns the share plan task t runs in: this node's own, unless t
// lies outside its range — then the dead owner's, which the elastic layer
// adopted.
func (e *engine) shareOf(t int32) *share {
	if uint32(t-e.lo) < uint32(len(e.remaining)) {
		return &e.share
	}
	return e.el.shares[e.pl.Owner(t)]
}

// shareFor returns the share of rank's tasks this node holds: its own, one
// the elastic layer adopted, or nil.
func (e *engine) shareFor(rank int) *share {
	switch {
	case rank == e.rank:
		return &e.share
	case e.el != nil:
		return e.el.shares[rank]
	}
	return nil
}

// tagOf returns the versioned wire tag of plan task t's output.
func (e *engine) tagOf(t int32) cluster.Tag {
	i, j := e.pl.TileCoords(e.pl.Out(t))
	return cluster.Tag{I: int32(i), J: int32(j), V: e.pl.Version(t)}
}

// slotOf returns the slot of its own share in which the plan has this node
// await plan task t's output version, or -1 when it gives the node none.
func (e *engine) slotOf(t int32) int32 {
	if s := e.pl.SlotAt(t, e.rank); s >= 0 {
		return s - e.slotLo
	}
	return -1
}

// hold counts n more tiles held beyond the owned ones into the working-set
// peak.
func (e *engine) hold(n int) {
	e.held += n
	if held := e.ownedTiles + e.held; held > e.peakTiles {
		e.peakTiles = held
	}
}

// drop releases share sh's received copy in slot s, if one is retained.
func (e *engine) drop(sh *share, s int32) {
	if sh.recv[s].Payload != nil {
		sh.recv[s].Release()
		e.held--
	}
}

// run executes this node's share of the graph and returns when every owned
// task has completed, or promptly once the run aborts: a local kernel error
// poisons the cluster and is returned; a poisoned cluster observed while work
// is still outstanding means a peer failed, and ErrPeerAborted is returned.
// With the elastic layer armed the exit condition is its completion barrier,
// not the local count (see elastic.barrier).
//
// The node is its Workers worker goroutines plus one receiver: there is no
// loop goroutine between them. run seeds the ready queue, starts them, takes
// the resilience layer's ticks when it is armed, and waits.
func (e *engine) run() error {
	// First, and even on a node with no task (the gather reads its tiles).
	e.generate(&e.share)
	if len(e.remaining) == 0 && e.res == nil {
		// Nothing to run. (An armed node still starts: its late-request server
		// and, under elastic, its adoptable capacity must exist.)
		return nil
	}

	e.mu.Lock()
	for k, rem := range e.remaining {
		if rem == 0 {
			e.pushReady(e.lo + int32(k))
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
	// Every worker's first job is popped here, before the receiver exists to
	// bring in a peer's abort: a node about to fail on a root task of its own
	// then reports that error, however much faster the peer failed.
	var workers sync.WaitGroup
	for slot := 0; slot < e.workers; slot++ {
		jb, ok := e.pop()
		workers.Add(1)
		go func() {
			defer workers.Done()
			e.work(slot, jb, ok)
		}()
	}
	e.settle()
	e.mu.Unlock()
	e.drained.Add(1)
	go e.receive()

	for {
		select {
		case <-tick:
			e.mu.Lock()
			if !e.stopped && !e.over {
				if err := e.res.onTick(); err != nil {
					// Retry budget exhausted on a non-elastic run.
					e.fail(err)
				}
				e.wake() // an escalation may have adopted ready tasks
				e.settle()
			}
			e.mu.Unlock()
		case <-e.finished:
			workers.Wait()
			return e.err
		}
	}
}

// fail is a node failure the whole run must see — a kernel error, a protocol
// violation, an exhausted retry budget, an injected crash without elastic
// recovery: poison the cluster so peers blocked on tiles we will never produce
// wake up, and stop dispatching (running kernels are awaited: settle).
func (e *engine) fail(err error) {
	e.comm.Abort()
	e.stopped, e.err = true, err
}

// settle ends the run once its exit condition holds: every owned task has
// finished and, under elastic, so has every adopted one and the completion
// barrier is open; or dispatch has stopped and the last running kernel is
// back. No kernel runs at that instant, so the received tiles an aborted run
// still retains — their consumers will never execute — are released here, or
// they stay counted in flight; on a shared cluster, permanently. (A completed
// run's last-reader releases already emptied every slot.) Whoever changed the
// state calls it, before giving up the lock.
func (e *engine) settle() {
	switch {
	case e.over:
		return
	case e.stopped:
		if e.running > 0 {
			return
		}
	case e.done < len(e.remaining) || (e.el != nil && !e.el.barrier()):
		return
	}
	e.over, e.overAt = true, time.Now()
	for rank := range e.pl.Nodes() {
		if sh := e.shareFor(rank); sh != nil {
			for s := range sh.recv {
				e.drop(sh, int32(s))
			}
		}
	}
	close(e.finished)
	e.idle = 0
	e.cond.Broadcast()
}

// receive is the node's one communication goroutine: it blocks in Recv outside
// the lock and delivers each message under it, so a tree relay or a re-request
// never waits behind a kernel. It outlives the run as its absorber — remote
// senders can always make progress — until the job's plane closes and the
// mailbox is drained, which is what RunPlan waits for (drained), armed or
// not, before it reads the ledger every late relay or answer charges. After
// the run it touches only the published cache, the relay ledger and the
// cluster, never the recorder or the engine fields the report reads
// meanwhile. A plane that closes while work is still outstanding means a peer
// failed: dispatch stops, running kernels finish, and a kernel error of our
// own that surfaces after all still replaces the bystander sentinel (finish).
func (e *engine) receive() {
	defer e.drained.Done()
	for {
		msg, open := e.comm.Recv()
		e.mu.Lock()
		if open && e.res != nil {
			e.res.heard[msg.From]++
		}
		switch {
		case !open:
			if !e.stopped && !e.over {
				e.stopped, e.err = true, ErrPeerAborted
			}
		case e.stopped:
			// Aborted, or dead under elastic recovery: a dead node answers no
			// requests and relays nothing — that silence is exactly what the
			// survivors' escalation and adoption must overcome.
			msg.Release()
		case !e.over:
			if err := e.onArrival(msg); err != nil {
				// Protocol violation (conflicting duplicate delivery): fail
				// this node descriptively instead of panicking.
				e.fail(err)
			}
			e.wake()
		case msg.Req:
			// A consumer slower than us may still re-request what we published.
			if e.res != nil {
				e.res.answer(msg)
			}
		case msg.Note == cluster.NoteNone:
			// A tree-broadcast hop that lands late still carries its subtree's
			// deliveries: relay it before releasing our own share, so a fast
			// consumer never strands the slow subtree behind it.
			e.relay(msg)
			msg.Release()
		}
		e.settle()
		e.mu.Unlock()
		if !open {
			return
		}
	}
}

// work is one worker slot's life: run a kernel outside the lock, then — as the
// node's event loop for that moment — publish the task and pop the next one
// itself. While work is ready a task costs no hand-off to another goroutine.
func (e *engine) work(slot int, jb job, ok bool) {
	if !ok {
		e.mu.Lock()
		jb, ok = e.next()
		e.mu.Unlock()
	}
	for ok {
		// Offsets from the epoch read only the monotonic clock, not the wall
		// clock time.Now also reads.
		start := time.Since(e.epoch)
		err := e.kern(jb.task, jb.out, jb.inputs)
		end := time.Since(e.epoch)
		e.busy[slot] += (end - start).Nanoseconds()
		if e.rec != nil {
			e.rec.RecordTask(e.rank, slot, jb.task, start.Seconds(), end.Seconds())
		}
		e.mu.Lock()
		e.finish(jb, err)
		jb, ok = e.next()
		e.mu.Unlock()
	}
}

// finish accounts for a kernel that returned. After dispatch stopped, a
// completion is suppressed entirely: no successor release, no sends.
func (e *engine) finish(jb job, err error) {
	e.running--
	e.done++
	switch {
	case err != nil:
		err = fmt.Errorf("%v: %w", jb.task, err)
		if !e.stopped {
			// First local kernel failure: the root cause. The failed task's
			// output is never published. A kernel error is a correctness
			// failure, not a crash — elastic recovery never masks it.
			e.fail(err)
		} else if errors.Is(e.err, ErrPeerAborted) {
			// This node failed too, it just noticed the peer's poison first:
			// its own kernel error is the better root cause than the
			// bystander sentinel.
			e.err = err
		}
	case !e.stopped:
		e.onComplete(jb.sh, jb.t)
	}
}

// next hands the calling worker its next job, putting it to sleep while
// nothing is ready; ok is false once the run is over. The sleep is the node's
// stall account, whether it ends in a job or at the run's last instant (a
// worker a serial chain never reaches sleeps through the whole of it).
func (e *engine) next() (jb job, ok bool) {
	var since time.Time // when this worker went idle
	for {
		if jb, ok = e.pop(); ok {
			if !since.IsZero() {
				e.noteStall(since, time.Now())
			}
			e.wake() // the completion may have released more than this worker takes
			return jb, true
		}
		if e.settle(); e.over {
			if !since.IsZero() {
				e.noteStall(since, e.overAt)
			}
			return job{}, false
		}
		if since.IsZero() {
			since = time.Now()
		}
		e.idle++
		e.cond.Wait()
	}
}

// wake rouses one sleeping worker per ready task. Callers that just popped for
// themselves call it afterwards, so a completion that releases one successor —
// which the finishing worker keeps — signals nobody.
func (e *engine) wake() {
	for n := min(e.idle, e.ready.Len()); n > 0; n-- {
		e.idle--
		e.cond.Signal()
	}
}

// pop takes the most urgent ready task off the queue and resolves it for the
// caller to run; ok is false when nothing is ready or dispatch has stopped.
// An injected crash fires here, before pop number crashAt, and is recorded
// once: dispatch stops with it, in whichever goroutine saw it.
func (e *engine) pop() (jb job, ok bool) {
	if e.stopped || e.ready.Empty() {
		return job{}, false
	}
	if e.pops == e.crashAt {
		e.fault("crash", e.rank, e.rank, fmt.Sprintf("task %d", e.crashAt))
		if e.el != nil {
			// Crashing is not an error under elastic recovery: the node falls
			// silent and the survivors adopt its work.
			e.el.die()
			e.stopped = true
		} else {
			e.fail(fmt.Errorf("node %d died before its owned task %d: %w",
				e.rank, e.crashAt, chaos.ErrInjectedCrash))
		}
		return job{}, false
	}
	e.pops++
	e.running++
	return e.resolve(e.ready.Pop()), true
}

// resolve looks up the tiles plan task t's kernel reads and writes, in t's
// share.
func (e *engine) resolve(t int32) job {
	pl, sh := e.pl, e.shareOf(t)
	task := pl.Task(t)
	refs := pl.Inputs(t)
	at := int(pl.InputBase(t) - sh.inLo)
	inputs := sh.inbuf[at : at+len(refs) : at+len(refs)]
	for k, ref := range refs {
		var in *tile.Tile
		if ref < 0 {
			in = sh.recv[^ref-sh.slotLo].Payload
		} else {
			in = sh.tiles[ref-sh.tileLo]
		}
		if in == nil {
			panic(fmt.Sprintf("runtime: node %d: input %d of %v missing", e.rank, k, task))
		}
		inputs[k] = in
	}
	return job{t: t, sh: sh, task: task, out: sh.tile(pl.Out(t)), inputs: inputs}
}

// fault puts one injected fault or recovery action on the run's trace, when
// one is being recorded — while the run lasts: what the receiver does after it
// must not touch the recorder.
func (e *engine) fault(kind string, from, to int, what string) {
	if e.rec != nil {
		e.rec.RecordFault(kind, from, to, what, time.Since(e.epoch).Seconds())
	}
}

// noteStall charges one worker's idle interval to the node's stall account:
// StallSeconds integrates idle-worker-time weighted by 1/workers, so a node
// with one of four workers idle accrues a quarter of what a fully idle node
// does. The report and the recorder are the same account.
func (e *engine) noteStall(start, end time.Time) {
	e.stallNanos += end.Sub(start).Nanoseconds()
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

// pushReady queues plan task t for dispatch under its critical-path key and
// tracks the ready-queue high-water mark.
func (e *engine) pushReady(t int32) {
	e.ready.Push(e.pl.Key(t), t)
	if n := e.ready.Len(); n > e.readyPeak {
		e.readyPeak = n
	}
}

// onComplete publishes plan task t, finished in share sh: releases its
// successors in the share, sends the output tile version once to every
// distinct remote consumer node — the plan's static destination list, passed
// to the cluster as is unless the elastic layer filters it through what only
// the run knows — and releases received tiles whose last consumer in the share
// just ran.
func (e *engine) onComplete(sh *share, t int32) {
	pl := e.pl
	out := sh.tile(pl.Out(t))
	netTag := e.tagOf(t)

	dsts := pl.Dsts(t)
	hadRemote := len(dsts) > 0
	for _, s := range pl.Succs(t) {
		if sh.release(s) {
			e.pushReady(s)
		}
	}
	if e.el != nil {
		dsts, hadRemote = e.el.complete(sh, t, out)
	}
	if len(dsts) > 0 {
		// One payload every consumer node shares: a final version by
		// reference — no task writes its tile again — and any other as the
		// cluster's snapshot, since the tile's next writer updates out in
		// place (see cluster.Broadcast).
		if len(dsts) == 1 && pl.Reduce(t) {
			// Reduction partial: the accumulator's only remote consumer is the
			// combine on its binomial parent's node, a point-to-point shipment
			// counted as reduction traffic rather than a broadcast.
			e.comm.SendReduce(dsts[0], netTag, out, pl.Final(t))
		} else {
			e.comm.Broadcast(dsts, netTag, out, pl.Final(t))
		}
	}
	if e.res != nil && hadRemote {
		e.res.publish(netTag, out, pl.Final(t))
	}

	// Last-reader release: drop received versions this task consumed once no
	// other task of the share still needs them, releasing the payload share,
	// clone or lent final tile, which then stops counting as in flight.
	for _, ref := range pl.Inputs(t) {
		if ref >= 0 {
			continue
		}
		s := ^ref - sh.slotLo
		if sh.readers[s]--; sh.readers[s] <= 0 {
			e.drop(sh, s)
		}
	}
}

// onArrival applies the one arrival rule, armed or not: a received version is
// taken in — counted, traced and delivered — while some share on the node
// awaits it in an unfed slot (awaits); a duplicate or a straggler is dropped
// uncounted and untraced.
//
// The transport sends each tile version at most once per destination, but a
// re-delivery must not crash the node: an arrival whose tag is still
// retained is dropped idempotently when its payload matches the retained copy,
// and reported as a descriptive error — surfaced through Run's joined node
// errors — when the payloads genuinely conflict, since then one of the two
// writes is wrong and the run cannot be trusted.
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
			e.res.answer(msg)
		}
		return nil
	}
	// Relay before any payload dedup, so the subtree's arrivals pipeline
	// behind ours instead of behind our kernel work — and because a payload
	// duplicate may still owe its subtree a relay (see relayLedger).
	e.relay(msg)
	pt, slot := e.pl.Producer(msg.Tag.I, msg.Tag.J, msg.Tag.V), int32(-1)
	if pt >= 0 {
		slot = e.slotOf(pt)
	}
	if slot >= 0 && e.recv[slot].Payload != nil {
		identical := e.recv[slot].Payload.EqualApprox(msg.Payload, 0)
		msg.Release()
		if identical {
			return nil
		}
		return fmt.Errorf("conflicting duplicate of tile %v from node %d: payload differs from the retained copy", msg.Tag, msg.From)
	}
	if pt < 0 || !e.awaits(pt, slot) {
		msg.Release()
		return nil
	}
	e.recvTotal++
	if e.rec != nil {
		e.rec.RecordMessage(msg.From, e.rank,
			msg.SentAt.Sub(e.epoch).Seconds(), time.Since(e.epoch).Seconds(),
			msg.Payload.Bytes())
	}
	e.deliver(pt, slot, msg.From, msg.Lease)
	return nil
}

// awaits reports whether some share on this node still awaits plan task t's
// output version in an unfed slot: the node's own in its slot s (-1: none),
// adopted ones only under elastic.
func (e *engine) awaits(t, s int32) bool {
	if s >= 0 && !e.fed[s] {
		return true
	}
	if e.el != nil {
		for _, rank := range e.pl.Dsts(t) {
			if sh := e.el.shares[rank]; sh != nil && !sh.fed[e.pl.SlotAt(t, rank)-sh.slotLo] {
				return true
			}
		}
	}
	return false
}

// deliver takes in l, plan task t's output version, from rank from (-1: the
// elastic layer produced it here): its wait ends, and every share on this
// node that awaits it gets it — the node's own in its slot s (-1: none),
// adopted ones only under elastic, in theirs.
func (e *engine) deliver(t, s int32, from int, l cluster.Lease) {
	if e.res != nil {
		e.res.arrived(e.tagOf(t), from)
	}
	if e.el == nil {
		e.offer(&e.share, s, l)
		return
	}
	e.offer(&e.share, s, l.Dup())
	for _, rank := range e.pl.Dsts(t) {
		if sh := e.el.shares[rank]; sh != nil {
			e.offer(sh, e.pl.SlotAt(t, rank)-sh.slotLo, l.Dup())
		}
	}
	l.Release()
}

// offer gives share sh's slot s (-1: none) its copy of a version. A slot
// takes one: the first is retained if the share's inputs read it, and it
// releases the slot's waiters; every other copy is released at once.
func (e *engine) offer(sh *share, s int32, l cluster.Lease) {
	if s < 0 || sh.fed[s] {
		l.Release()
		return
	}
	sh.fed[s] = true
	if sh.readers[s] > 0 {
		sh.recv[s] = l
		e.hold(1)
	} else {
		l.Release()
	}
	for _, t := range e.pl.Waiters(sh.slotLo + s) {
		if sh.release(t) {
			e.pushReady(t)
		}
	}
}
