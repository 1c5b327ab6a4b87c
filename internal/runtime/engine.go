package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/plan"
	"anybc/internal/sched"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// job is one resolved kernel execution: whoever pops a task looks its output
// and input tiles up under the node lock, so the kernel — which runs outside
// it — reads no engine state. inputs is the popping worker slot's own buffer,
// rewritten by that slot's next pop.
type job struct {
	t      int32 // plan task
	task   dag.Task
	out    *tile.Tile
	inputs []*tile.Tile
}

// engine is one node: its share of the plan and the per-run state its
// workers share (see the package comment).
type engine struct {
	rank    int
	comm    *cluster.Comm
	pl      *plan.Plan                // shared, read-only
	gen     func(i, j int) *tile.Tile // initial tile contents; see Run for its contract
	kern    Kernel
	workers int
	rec     *trace.Recorder
	epoch   time.Time

	// mu is the node. Every field below it is touched only with it held, and
	// whoever holds it — a worker publishing the task it just ran, a sender
	// taking a message in — is the node's event loop for that moment.
	// Kernels run outside it. It is released only through unlock, which first
	// takes in what queued meanwhile. Under it, other nodes' locks are only
	// ever tried (a send that takes its message in), never waited for, so no
	// two nodes can wait on each other; the mailbox locks a send or a drain
	// takes under it are leaves.
	mu sync.Mutex
	// Workers that found nothing ready sleep on cond; idle counts the sleepers
	// nobody has signalled yet. running counts kernels executing now, done the
	// tasks finished. stopped ends dispatch for good — this node failed, or a
	// peer did — with err what the node reports. over is the end of the run
	// itself (see settle), stamped overAt. launched is set once run has popped
	// every worker's first job; closeSeen once the node took its mailbox's
	// closure in (drain).
	cond          sync.Cond
	idle          int
	running, done int
	stopped, over bool
	err           error
	overAt        time.Duration // since epoch
	launched      bool
	closeSeen     atomic.Bool

	// inbuf holds one kernel-input buffer per worker slot, MaxInputs entries
	// each: a popped job's inputs live in its worker's buffer (resolve).
	inbuf []*tile.Tile

	// The node's share of the plan: its per-run tables, each a flat slice
	// indexed by (plan index − start of the rank's range): tasks from lo,
	// tiles from tileLo, slots from slotLo. remaining counts each task's
	// unresolved dependencies. tiles holds the rank's tiles: the in-place
	// buffers its writer chains update. recv holds the received remote version
	// of each slot — its Lease, not the message — retained until readers[slot]
	// consumers have run and then released: the last Release of a lent tile
	// stops counting it as in flight. fed marks slots whose version was taken
	// in: the unfed ones are what the node still awaits.
	lo, tileLo, slotLo int32
	remaining          []int32
	tiles              []*tile.Tile
	recv               []cluster.Lease
	readers            []int32
	fed                []bool

	// ready is the node's dispatch queue: the shared critical-path priority
	// queue of package sched, keyed by the plan's per-task keys, holding plan
	// task indices.
	ready sched.Heap

	// ownedTiles counts the node's tiles, held the retained received copies
	// beyond them, and peakTiles is the high-water mark of the sum.
	ownedTiles int
	held       int
	recvTotal  int
	peakTiles  int

	// busy accumulates per-slot nanoseconds up to each kernel's end, from
	// the slot's previous clock read — the kernel with the publication and
	// pop before it — or, in a traced run, from the kernel's start (see
	// work): each worker writes only its own entry, outside the lock, and it
	// is read after the workers join.
	busy []int64

	// Scheduler observability (Report.Sched). stallNanos accumulates the
	// workers' idle spans; the report divides by the worker count to get the
	// idle-weighted StallSeconds.
	stallNanos int64
	readyPeak  int
}

// newEngine allocates rank's per-run mutable state, sized from its share of
// the plan; opt must be normalized. The tiles are left for generate. Nothing
// here walks the graph.
func newEngine(rank int, comm *cluster.Comm, pl *plan.Plan,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options, epoch time.Time) *engine {

	lo, hi := pl.Tasks(rank)
	tileLo, tileHi := pl.Tiles(rank)
	slotLo, slotHi := pl.Slots(rank)
	e := &engine{
		rank:      rank,
		comm:      comm,
		pl:        pl,
		gen:       gen,
		kern:      kern,
		workers:   opt.Workers,
		rec:       opt.Recorder,
		epoch:     epoch,
		lo:        lo,
		tileLo:    tileLo,
		slotLo:    slotLo,
		remaining: make([]int32, hi-lo),
		tiles:     make([]*tile.Tile, tileHi-tileLo),
		recv:      make([]cluster.Lease, slotHi-slotLo),
		readers:   append([]int32(nil), pl.SlotReaders(slotLo, slotHi)...),
		fed:       make([]bool, slotHi-slotLo),
		ready:     sched.NewHeap(sched.TieLIFO),
		busy:      make([]int64, opt.Workers),
		inbuf:     make([]*tile.Tile, opt.Workers*pl.MaxInputs()),
	}
	for t := lo; t < hi; t++ {
		e.remaining[t-lo] = pl.NumDeps(t)
	}
	e.cond.L = (*nodeLock)(e)
	if opt.Recorder != nil {
		comm.Timestamp() // SentAt has one reader: the message rows of a trace
	}
	// The owned tiles themselves are generated by run, on the node's own
	// goroutine; they count as held from the start.
	e.ownedTiles = len(e.tiles)
	e.peakTiles = e.ownedTiles
	return e
}

// generate fills the node's tiles. run calls it on the node's own goroutine
// rather than newEngine on the caller's: the P nodes generate their tiles
// side by side, and a node that is done starts on its ready tasks while the
// others still generate — a tile version sent to one of those is taken in
// all the same (open), since taking in touches no tile.
func (e *engine) generate() {
	for k := range e.tiles {
		e.tiles[k] = e.gen(e.pl.TileCoords(e.tileLo + int32(k)))
	}
}

// tile returns the node's buffer of plan tile tl.
func (e *engine) tile(tl int32) *tile.Tile { return e.tiles[tl-e.tileLo] }

// release resolves one dependency of the node's plan task t — a local
// predecessor's completion or an awaited version's arrival — and reports
// whether none remain: the task is ready.
func (e *engine) release(t int32) bool {
	rem := &e.remaining[t-e.lo]
	*rem--
	return *rem == 0
}

// tagOf returns the versioned wire tag of plan task t's output.
func (e *engine) tagOf(t int32) cluster.Tag {
	i, j := e.pl.TileCoords(e.pl.Out(t))
	return cluster.Tag{I: int32(i), J: int32(j), V: e.pl.Version(t)}
}

// slotOf returns the slot in which the plan has this node await plan task t's
// output version, or -1 when it gives the node none.
func (e *engine) slotOf(t int32) int32 {
	if s := e.pl.SlotAt(t, e.rank); s >= 0 {
		return s - e.slotLo
	}
	return -1
}

// hold counts one more tile held beyond the owned ones into the working-set
// peak.
func (e *engine) hold() {
	e.held++
	if held := e.ownedTiles + e.held; held > e.peakTiles {
		e.peakTiles = held
	}
}

// drop releases the received copy in slot s, if one is retained.
func (e *engine) drop(s int32) {
	if e.recv[s].Payload != nil {
		e.recv[s].Release()
		e.held--
	}
}

// open makes the node ready to take messages in, before any node runs: its
// root tasks are queued and it becomes its mailbox's taker, so a version that
// lands before the node's run starts is taken in at once rather than queued.
func (e *engine) open() {
	for k, rem := range e.remaining {
		if rem == 0 {
			e.pushReady(e.lo + int32(k))
		}
	}
	e.comm.SetTaker(e)
}

// run executes this node's share of the graph and returns when every owned
// task has completed, or promptly once the run aborts: a local kernel error
// poisons the cluster and becomes the node's err; a poisoned cluster observed
// while work is still outstanding means a peer failed, and err is
// ErrPeerAborted. RunPlan reads err once every node has returned and taken in
// what its mailbox still held.
//
// The node is its Workers worker goroutines and nothing else: messages are
// taken in by the goroutines that send them (Take), and run's own goroutine
// is the last worker.
func (e *engine) run() {
	// First, and even on a node with no task (the gather reads its tiles).
	e.generate()
	if len(e.remaining) == 0 {
		return
	}

	e.mu.Lock()
	// Every worker's first job is popped here, before the node acts on a
	// peer's abort: a node about to fail on a root task of its own then
	// reports that error, however much faster the peer failed. The clock read
	// is every worker's first: busy and stall are counted from it.
	born := time.Since(e.epoch)
	last := e.workers - 1
	var workers sync.WaitGroup
	for slot := 0; slot < last; slot++ {
		jb, ok := e.pop(slot)
		workers.Add(1)
		go func() {
			defer workers.Done()
			e.work(slot, born, jb, ok)
		}()
	}
	own, ownOK := e.pop(last)
	e.launched = true
	if e.closeSeen.Load() {
		e.peerAbort()
	}
	e.settle()
	e.unlock()

	e.work(last, born, own, ownOK)
	workers.Wait()
}

// fail is a node failure the whole run must see — a kernel error or a
// protocol violation: poison the cluster so peers blocked on tiles we will
// never produce wake up, and stop dispatching (running kernels are awaited:
// settle).
func (e *engine) fail(err error) {
	e.comm.Abort()
	e.stopped, e.err = true, err
}

// settle ends the run once its exit condition holds: every owned task has
// finished, or dispatch has stopped and the last running kernel is back. No
// kernel runs at that instant, so the received tiles an aborted run still
// retains — their consumers will never execute — are released here, or they
// stay counted in flight; on a shared cluster, permanently. (A completed
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
	case e.done < len(e.remaining):
		return
	}
	e.over, e.overAt = true, time.Since(e.epoch)
	for s := range e.recv {
		e.drop(int32(s))
	}
	e.idle = 0
	e.cond.Broadcast()
}

// nodeLock is the node lock as cond sees it: a worker that goes to sleep
// releases it the way every holder does (unlock).
type nodeLock engine

func (l *nodeLock) Lock()   { l.mu.Lock() }
func (l *nodeLock) Unlock() { (*engine)(l).unlock() }

// Take is the node's cluster.Taker: the sending goroutine takes msg in itself,
// under the node lock, if it gets that lock without waiting and the job's
// plane is still open — after whatever queued before it, so messages from
// one sender stay in order. A message it declines is queued, and Wake sees to
// it. Taking in never waits on a lock: a send from under another node's lock
// only tries this one, so no two nodes can wait on each other.
func (e *engine) Take(msg cluster.Message) bool {
	if !e.mu.TryLock() {
		return false
	}
	if e.comm.Closed() {
		// After the closure nothing more is taken in: RunPlan reads the
		// ledger once it has drained every node after closing the plane.
		e.unlock()
		return false
	}
	e.drain()
	e.absorb(msg)
	e.unlock()
	return true
}

// Wake is the node's cluster.Taker half that follows a queued message or the
// mailbox's closure: take it in now, or leave it to whoever holds the lock,
// who takes it in as it releases the lock.
func (e *engine) Wake() {
	if e.mu.TryLock() {
		e.unlock()
	}
}

// unlock releases the node lock the one way every holder does: it first
// takes in what queued while the lock was held; once released, it looks
// again — a sender that failed to get the lock meanwhile queued its message
// and left it to the holder — and goes round again if it gets the lock back.
// When it does not, the goroutine that has it does the same, so no message
// and no closure is stranded in the mailbox.
func (e *engine) unlock() {
	for {
		e.drain()
		e.mu.Unlock()
		if !e.pending() || !e.mu.TryLock() {
			return
		}
	}
}

// pending reports, without the lock, whether the mailbox holds something the
// node has not taken in: a queued message, or its closure.
func (e *engine) pending() bool {
	return e.comm.Queued() > 0 || (!e.closeSeen.Load() && e.comm.Closed())
}

// drain takes in every queued message, oldest first, and then the mailbox's
// closure — once — if it had closed before the queue was read: a message
// queued before the closure is then taken in ahead of it, and none can be
// queued after it. The lock is held.
func (e *engine) drain() {
	if !e.pending() {
		return
	}
	closed := e.comm.Closed()
	for {
		msg, ok := e.comm.TryRecv()
		if !ok {
			break
		}
		e.absorb(msg)
	}
	if closed && !e.closeSeen.Load() {
		e.closeSeen.Store(true)
		e.peerAbort()
		e.settle()
	}
}

// peerAbort acts on the plane's closure: a plane that closes while a launched
// node's run is not over means a peer failed, or the run was cancelled.
// Dispatch stops, running kernels finish, and a kernel error of our own that
// surfaces after all still replaces the bystander sentinel (finish). A node
// that sees the closure before it launched acts on it as it launches.
func (e *engine) peerAbort() {
	if e.launched && !e.stopped && !e.over {
		e.stopped, e.err = true, ErrPeerAborted
	}
}

// absorb takes one message in, in whichever goroutine holds the lock. An
// aborted node relays nothing: the job's plane is closing. Any other node
// applies the arrival rule, even once its run is over — a finished node
// awaits nothing, so what reaches it then is a repeat, and fails the run.
func (e *engine) absorb(msg cluster.Message) {
	if e.stopped {
		msg.Release()
		return
	}
	if err := e.onArrival(msg); err != nil {
		e.fail(err)
	}
	e.wake()
	e.settle()
}

// work is one worker slot's life: run a kernel outside the lock, then — as the
// node's event loop for that moment — publish the task and pop the next one
// itself. While work is ready a task costs no hand-off to another goroutine.
//
// A kernel costs one clock read, at its end: last is the slot's latest read —
// born, its lifetime's start, then every kernel's end and every wake from a
// sleep — so busy (to a kernel's end) and stall (to a wake, or to the run's
// end) add up to the slot's lifetime. Only a traced run reads the clock at a
// kernel's start too, for an exact Gantt row, and then counts busy from it:
// the publication and pop before the kernel are then neither busy nor stall.
func (e *engine) work(slot int, last time.Duration, jb job, ok bool) {
	if !ok {
		e.mu.Lock()
		jb, ok = e.next(slot, &last)
		e.unlock()
	}
	for ok {
		start := last
		if e.rec != nil {
			start = time.Since(e.epoch)
		}
		err := e.kern(jb.task, jb.out, jb.inputs)
		end := time.Since(e.epoch)
		e.busy[slot] += int64(end - start)
		if e.rec != nil {
			e.rec.RecordTask(e.rank, slot, jb.task, start.Seconds(), end.Seconds())
		}
		last = end
		e.mu.Lock()
		e.finish(jb, err)
		jb, ok = e.next(slot, &last)
		e.unlock()
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
			// output is never published.
			e.fail(err)
		} else if errors.Is(e.err, ErrPeerAborted) {
			// This node failed too, it just noticed the peer's poison first:
			// its own kernel error is the better root cause than the
			// bystander sentinel.
			e.err = err
		}
	case !e.stopped:
		e.onComplete(jb.t)
	}
}

// next hands worker slot its next job, putting it to sleep while nothing is
// ready; ok is false once the run is over. The time from the slot's last
// clock read to a wake that brings a job, or to the run's end, is the node's
// stall account (a worker a serial chain never reaches sleeps through the
// whole of it); last moves to the wake.
func (e *engine) next(slot int, last *time.Duration) (jb job, ok bool) {
	slept := false
	for {
		if jb, ok = e.pop(slot); ok {
			if slept {
				now := time.Since(e.epoch)
				e.noteStall(*last, now)
				*last = now
			}
			e.wake() // the completion may have released more than this worker takes
			return jb, true
		}
		if e.settle(); e.over {
			if e.overAt > *last {
				e.noteStall(*last, e.overAt)
			}
			return job{}, false
		}
		slept = true
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

// pop takes the most urgent ready task off the queue and resolves it for
// worker slot to run; ok is false when nothing is ready or dispatch has
// stopped.
func (e *engine) pop(slot int) (jb job, ok bool) {
	if e.stopped || e.ready.Empty() {
		return job{}, false
	}
	e.running++
	return e.resolve(slot, e.ready.Pop()), true
}

// resolve looks up the tiles plan task t's kernel reads and writes into
// worker slot's input buffer.
func (e *engine) resolve(slot int, t int32) job {
	pl := e.pl
	task := pl.Task(t)
	refs := pl.Inputs(t)
	at := slot * pl.MaxInputs()
	inputs := e.inbuf[at : at+len(refs) : at+len(refs)]
	for k, ref := range refs {
		var in *tile.Tile
		if ref < 0 {
			in = e.recv[^ref-e.slotLo].Payload
		} else {
			in = e.tile(ref)
		}
		if in == nil {
			panic(fmt.Sprintf("runtime: node %d: input %d of %v missing", e.rank, k, task))
		}
		inputs[k] = in
	}
	return job{t: t, task: task, out: e.tile(pl.Out(t)), inputs: inputs}
}

// noteStall charges one worker's idle interval, as offsets from the epoch, to
// the node's stall account: StallSeconds integrates idle-worker-time weighted
// by 1/workers, so a node with one of four workers idle accrues a quarter of
// what a fully idle node does. The report and the recorder are the same
// account.
func (e *engine) noteStall(start, end time.Duration) {
	e.stallNanos += int64(end - start)
	if e.rec != nil {
		e.rec.RecordStall(e.rank, start.Seconds(), end.Seconds(), 1/float64(e.workers))
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

// onComplete publishes plan task t: releases its local successors, sends the
// output tile version once to every distinct remote consumer node — the
// plan's static destination list, passed to the cluster as is — and releases
// received tiles whose last local consumer just ran.
func (e *engine) onComplete(t int32) {
	pl := e.pl
	for _, s := range pl.Succs(t) {
		if e.release(s) {
			e.pushReady(s)
		}
	}
	if dsts := pl.Dsts(t); len(dsts) > 0 {
		// One payload every consumer node shares: the output tile itself,
		// which no task writes again — the plan sends only a tile's last
		// version.
		e.comm.Broadcast(dsts, e.tagOf(t), e.tile(pl.Out(t)))
	}

	// Last-reader release: drop received versions this task consumed once no
	// other local task still needs them, releasing the payload share, which
	// then stops counting as in flight.
	for _, ref := range pl.Inputs(t) {
		if ref >= 0 {
			continue
		}
		s := ^ref - e.slotLo
		if e.readers[s]--; e.readers[s] <= 0 {
			e.drop(s)
		}
	}
}

// onArrival applies the one arrival rule: a received version is taken in —
// relayed down its tree, counted, traced and delivered — only into the unfed
// slot that awaits it. The network delivers every message exactly once and
// the plan sends each version once to each consumer node, so a version no
// slot awaits, or one whose slot is already fed, is an internal error naming
// the node and the tag; the message is released and nothing is relayed.
func (e *engine) onArrival(msg cluster.Message) error {
	pt, slot := e.pl.Producer(msg.Tag.I, msg.Tag.J, msg.Tag.V), int32(-1)
	if pt >= 0 {
		slot = e.slotOf(pt)
	}
	switch {
	case slot < 0:
		msg.Release()
		return fmt.Errorf("internal error: node %d awaits no tile %v, yet node %d sent it", e.rank, msg.Tag, msg.From)
	case e.fed[slot]:
		msg.Release()
		return fmt.Errorf("internal error: tile %v from node %d reached node %d twice", msg.Tag, msg.From, e.rank)
	}
	// Relay first, so the subtree's arrivals pipeline behind ours instead of
	// behind our kernel work.
	if len(msg.Forward) > 0 {
		e.comm.Forward(msg)
	}
	e.recvTotal++
	if e.rec != nil {
		e.rec.RecordMessage(msg.From, e.rank,
			msg.SentAt.Sub(e.epoch).Seconds(), time.Since(e.epoch).Seconds(),
			msg.Payload.Bytes())
	}
	e.deliver(slot, msg.Lease)
	return nil
}

// deliver feeds unfed slot s the version l: it is retained if the node's
// tasks read it, and its waiters are released.
func (e *engine) deliver(s int32, l cluster.Lease) {
	e.fed[s] = true
	if e.readers[s] > 0 {
		e.recv[s] = l
		e.hold()
	} else {
		l.Release()
	}
	for _, t := range e.pl.Waiters(e.slotLo + s) {
		if e.release(t) {
			e.pushReady(t)
		}
	}
}
