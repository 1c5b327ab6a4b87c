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

// dispatcher is the node's intra-node work-stealing layer between the event
// loop's critical-path heap and the worker goroutines. The event loop pops
// tasks off the shared sched.Heap in priority order and pushes them to
// per-worker deques; each worker consumes its own deque front-to-back, and a
// worker whose deque runs dry steals from the back of the fullest peer deque
// — the coldest, least-urgent entry — so the victim keeps both its
// critical-path front and the cache affinity of its recently fed tail. This
// is the hybrid static/dynamic recipe of Donfack–Grigori–Gropp–Kale: static
// owner-computes placement across nodes, dynamic stealing within one.
//
// One mutex guards all deques. Deques hold at most a couple of prefetched
// jobs each (the event loop feeds at most workers+lookahead in flight), so a
// fine-grained lock-free deque would buy nothing here.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]job
	closed bool
	rr     int   // rotating tie-break cursor for equal-length deques
	steals []int // per worker slot: jobs taken from another worker's deque
}

func newDispatcher(workers int) *dispatcher {
	d := &dispatcher{
		deques: make([][]job, workers),
		steals: make([]int, workers),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// push appends jb to the shortest deque — ties broken by a rotating cursor,
// so equal-length deques share arrivals round-robin — and wakes one sleeping
// worker. Jobs arrive in heap priority order, so deque position encodes
// urgency: front = hottest, back = coldest.
func (d *dispatcher) push(jb job) {
	d.mu.Lock()
	n := len(d.deques)
	best, bestLen := 0, int(^uint(0)>>1)
	for off := 0; off < n; off++ {
		w := (d.rr + off) % n
		if l := len(d.deques[w]); l < bestLen {
			best, bestLen = w, l
		}
	}
	d.rr = (best + 1) % n
	d.deques[best] = append(d.deques[best], jb)
	d.mu.Unlock()
	d.cond.Signal()
}

// take returns the next job for worker slot: the front of its own deque,
// else a steal from the back of the fullest other deque. It blocks while
// every deque is empty; ok reports false once the dispatcher is closed and
// drained. When the call had to block, waitStart/waitEnd bound the starved
// interval (first block to job obtained) — the worker-side signal the
// idle-weighted stall accounting integrates; both are zero when a job was
// available immediately, and the interval is discarded by the caller when
// ok is false (the wait that ends in shutdown is not starvation).
func (d *dispatcher) take(slot int) (jb job, ok bool, waitStart, waitEnd time.Time) {
	d.mu.Lock()
	for {
		if q := d.deques[slot]; len(q) > 0 {
			jb = q[0]
			d.deques[slot] = q[1:]
			ok = true
			break
		}
		victim, vlen := -1, 0
		for w := range d.deques {
			if w != slot && len(d.deques[w]) > vlen {
				victim, vlen = w, len(d.deques[w])
			}
		}
		if victim >= 0 {
			q := d.deques[victim]
			jb = q[len(q)-1]
			d.deques[victim] = q[:len(q)-1]
			d.steals[slot]++
			ok = true
			break
		}
		if d.closed {
			break
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		d.cond.Wait()
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
	var dropped []job
	for w := range d.deques {
		dropped = append(dropped, d.deques[w]...)
		d.deques[w] = nil
	}
	d.mu.Unlock()
	return dropped
}

// close wakes every blocked worker; take returns ok == false once the deques
// are drained.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}
