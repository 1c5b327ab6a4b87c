package runtime

import (
	"sync"
	"time"

	"anybc/internal/dag"
	"anybc/internal/tile"
)

// job is one fully-resolved kernel execution: the event loop resolves the
// task's input tiles (from tables only it may touch) at feed time, so workers
// never read engine state. The task itself rides in the job (not just its
// index) because elastic adoption appends to the engine's task tables
// mid-run — workers must not index a slice the event loop may be growing.
type job struct {
	idx    int
	task   dag.Task
	out    *tile.Tile
	inputs []*tile.Tile
}

// dispatcher is the node's one queue between the event loop's critical-path
// heap and the worker goroutines: the event loop pops tasks off the shared
// sched.Heap in priority order and appends them, and whichever worker is free
// takes the front — the most urgent queued job. This is the dynamic half of
// the hybrid static/dynamic recipe of Donfack–Grigori–Gropp–Kale: static
// owner-computes placement across nodes, one shared queue the node's threads
// pull from within one.
//
// A mutex and a condition variable, not a buffered channel: the queue holds at
// most feedCap jobs, purge must hand the unstarted ones back after an abort,
// and the channel measured 4 % slower on the one multi-worker benchmark
// workload (lu-overhead).
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []job
	closed bool
}

func newDispatcher() *dispatcher {
	d := &dispatcher{}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// push appends jb and wakes one sleeping worker. Jobs arrive in heap priority
// order, so queue position encodes urgency: front = hottest.
func (d *dispatcher) push(jb job) {
	d.mu.Lock()
	d.queue = append(d.queue, jb)
	d.mu.Unlock()
	d.cond.Signal()
}

// take returns the front of the queue. It blocks while the queue is empty; ok
// reports false once the dispatcher is closed and drained. When the call had
// to block, waitStart/waitEnd bound the starved interval (first block to job
// obtained) — the worker-side signal the idle-weighted stall accounting
// integrates; both are zero when a job was available immediately, and the
// interval is discarded by the caller when ok is false (the wait that ends in
// shutdown is not starvation).
func (d *dispatcher) take() (jb job, ok bool, waitStart, waitEnd time.Time) {
	d.mu.Lock()
	for len(d.queue) == 0 && !d.closed {
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		d.cond.Wait()
	}
	if len(d.queue) > 0 {
		// Shift down rather than re-slice: the queue is a few jobs long (the
		// event loop keeps at most feedCap in flight), and its array is reused
		// for the whole run.
		jb, ok = d.queue[0], true
		d.queue = d.queue[:copy(d.queue, d.queue[1:])]
	}
	d.mu.Unlock()
	if ok && !waitStart.IsZero() {
		waitEnd = time.Now()
	}
	return jb, ok, waitStart, waitEnd
}

// purge drops every queued-but-unstarted job after an abort and returns
// them, so the event loop can settle its in-flight and dispatch counts and
// exit once the already-running kernels drain.
func (d *dispatcher) purge() []job {
	d.mu.Lock()
	dropped := d.queue
	d.queue = nil
	d.mu.Unlock()
	return dropped
}

// close wakes every blocked worker; take returns ok == false once the queue
// is drained.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}
