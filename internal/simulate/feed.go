package simulate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"anybc/internal/dag"
)

// The simulator runs as two goroutines, the way a sequential-task-flow
// runtime's submission thread runs ahead of execution: a producer runs the
// dependency inference and routing (dag.Inference.Next, Route, DoneBefore),
// and the event loop (run) simulates. The producer hands the program over an
// iteration at a time, in pages, and infers the next iteration while the
// event loop works; it pages that one only once the event loop has taken the
// last, so the pages run at most one iteration ahead, and the inference one
// more while the producer waits. Nothing is copied twice: the event loop
// counts dependencies down from the entries the producer wrote, reads the
// routes off the pages, and its delivery records point into them. Under
// GOMAXPROCS = 1 the two goroutines take turns.
//
// A task is named by a handle: its page's sequence number above pageBits bits
// of offset. Handles are opaque ids to the ready queues and the event queue,
// which order by key and by time, so the run is the one the inference's
// positions would give.
const (
	pageBits = 9
	pageSize = 1 << pageBits
	offMask  = pageSize - 1
	seqMask  = 1<<(31-pageBits) - 1 // page sequence numbers wrap here
)

// page holds up to pageSize consecutive tasks of one iteration. The producer
// writes its tasks, owners and dependency counts before it hands the
// iteration over, then its routes when the iteration settles (during the next
// Next), before it hands over the next iteration; the event loop reads a
// route only after that. Once every task on the page has run and every
// delivery it sent has landed, the event loop returns the page to the
// producer's stock for reuse. The fields the producer writes while the
// event loop works on the page are kept off the cache lines the event loop
// writes, and the event loop writes only left and wait, which the producer
// never touches: the lines the producer wrote are only read on the other
// core, and a reused page brings nothing back from it.
type page struct {
	// Written by the producer when the page's iteration settles.
	succ []int32 // the routes' arena: each task's local successors, then its waiters, as handles
	dst  []dest
	next *page // the iteration's next page, or nil; written before the hand-over
	_    [8]byte

	// Written by the producer before the hand-over, then the event loop's,
	// on a cache line of their own.
	seq  uint32 // sequence number, in [0, seqMask]
	iter int32  // the iteration the page's tasks belong to
	n    int32  // tasks on the page
	left int32  // event loop: tasks not yet run plus deliveries in flight
	e    [pageSize]entry

	r      [pageSize + 1]route // the tasks' routes, and a sentinel ending the last
	reduce [pageSize]bool      // the task's output is a reduction partial

	// The event loop's alone: each task's count of unmet dependencies, set
	// from its entry when the page is taken. The producer never writes
	// these lines, so the event loop's counting stays on its own core.
	wait [pageSize]int32
}

// entry is what the producer hands over of one task: the task, its owner and
// its number of dependencies.
type entry struct {
	t            dag.Task
	owner, preds int32
}

// route is where a task's route lies in its page's arenas, written when its
// iteration settles — apart from the entries, whose counts the event loop is
// writing meanwhile. The local successors end at succ[local]; the
// destinations are dst[dst:] up to the next route's, and their waiters follow
// the local successors in succ.
type route struct{ local, dst int32 }

// dest is one remote owner of a route and the end, in its page's succ, of
// the waiters it owns.
type dest struct{ node, end int32 }

// locals returns the successors of task o on its own node: they start where
// the route of task o-1 ends.
func (p *page) locals(o int32) []int32 {
	lo := int32(0)
	if o > 0 {
		lo = p.r[o-1].local
		if d := p.r[o].dst; d > p.r[o-1].dst {
			lo = p.dst[d-1].end
		}
	}
	return p.succ[lo:p.r[o].local]
}

// waiters returns the successors destination k of task o owns.
func (p *page) waiters(o int32, k int32) []int32 {
	d := p.r[o].dst + k
	lo := p.r[o].local
	if k > 0 {
		lo = p.dst[d-1].end
	}
	return p.succ[lo:p.dst[d].end]
}

// feed is the producer's state, written only by its goroutine but for the
// stock, which the event loop fills under mu.
type feed struct {
	inf   *dag.Inference
	pages chan *page    // one iteration's first page per send, nil for an empty one; holds one
	room  chan struct{} // holds a token while the event loop has taken every iteration paged
	quit  chan struct{} // closed by the event loop when Run returns
	exit  chan struct{} // closed by the producer when it returns
	err   error         // the inference's, readable once pages is closed

	seq       uint32    // the next page's sequence number
	cur, prev span      // the iteration just inferred and the one before it
	scratch   dag.Route // settle's, refilled for each task

	mu    sync.Mutex
	stock stock

	held atomic.Int64 // tasks on pages taken from the stock and not returned
	peak int64        // the most held at once, with the iteration inferred and not yet paged
	live int          // the most tasks the inference held at once
}

// span is one iteration's tasks: their positions in the program, from start,
// and their pages.
type span struct {
	start int32
	base  uint32 // the handle of the task at start
	pages []*page
}

// handle returns the handle of the task at position pos of the span: the
// span's pages are consecutive, so handles run on from its first.
func (sp *span) handle(pos int32) int32 {
	return int32((sp.base + uint32(pos-sp.start)) & (seqMask<<pageBits | offMask))
}

// produce infers the program one iteration at a time. It infers an
// iteration and writes the routes of the tasks that iteration settles — the
// iteration before, whose pages the event loop may not have taken yet — and
// marks them done so the inference forgets them; then it waits until the
// event loop has taken the iteration before to page the new one and hand it
// over. All but the paging runs ahead of the event loop; the inference holds
// two iterations while it infers one. The new iteration's handles run on
// from the last page's, so routes can name its tasks before it is paged.
func (f *feed) produce() {
	defer close(f.exit)
	defer close(f.pages)
	for iter, end := int32(0), int32(0); f.inf.Next(); iter++ {
		f.live = max(f.live, f.inf.Live())
		f.prev, f.cur = f.cur, f.prev
		f.cur.start, f.cur.base, f.cur.pages = end, f.seq<<pageBits, f.cur.pages[:0]
		end = f.inf.End()
		f.seq = (f.seq + uint32(end-f.cur.start+pageSize-1)>>pageBits) & seqMask
		// Held pages only shrink until fill moves the new tasks onto pages.
		f.peak = max(f.peak, f.held.Load()+int64(end-f.cur.start))
		settled := f.inf.Settled()
		f.settle(f.prev.start, min(settled, f.cur.start))
		select {
		case <-f.room:
		case <-f.quit:
			return
		}
		f.fill(iter, end)
		f.settle(f.cur.start, settled) // the last iteration settles itself
		f.inf.DoneBefore(settled)
		var first *page
		if len(f.cur.pages) > 0 {
			first = f.cur.pages[0]
		}
		f.pages <- first // the event loop took the last one before the token came back: pages is empty
	}
	f.err = f.inf.Err()
}

// fill pages the tasks of iteration iter, from f.cur.start to hi, under the
// sequence numbers reserved for them.
func (f *feed) fill(iter, hi int32) {
	seq := f.cur.base >> pageBits
	var last *page
	for at := f.cur.start; at < hi; at += pageSize {
		p := f.take()
		p.next = nil
		p.seq, p.iter, p.n = seq, iter, min(hi-at, pageSize)
		p.left = p.n
		seq = (seq + 1) & seqMask
		for o := int32(0); o < p.n; o++ {
			e := &p.e[o]
			e.t, e.owner, e.preds = f.inf.At(at + o)
		}
		if last != nil {
			last.next = p
		}
		last = p
		f.cur.pages = append(f.cur.pages, p)
		f.held.Add(int64(p.n))
	}
}

// stock holds idle pages and the routes' arenas.
type stock struct {
	pages  []*page
	arenas [][]int32
}

// take returns an idle page, or a new one.
func (f *feed) take() *page {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &f.stock
	if last := len(st.pages) - 1; last >= 0 {
		p := st.pages[last]
		st.pages = st.pages[:last]
		return p
	}
	return new(page)
}

// give returns a page the event loop is done with, and its arena, to the
// stock.
func (f *feed) give(p *page) {
	f.held.Add(-int64(p.n))
	f.mu.Lock()
	st := &f.stock
	st.pages = append(st.pages, p)
	st.arenas = append(st.arenas, p.succ[:0])
	p.succ = nil
	f.mu.Unlock()
}

// arena returns an empty arena with room for n successors: the smallest idle
// one that fits, or a new one. Iterations shrink as a factorization proceeds,
// so the arenas of its first iterations serve all the rest. An arena kept on
// its page instead regrows whenever the page is reused for tasks with more
// successors: the mt = 100 pair allocated 11.7 MB a run, sized by NumSuccs,
// and 19.8 MB grown by append, against 9.4 MB this way.
func (f *feed) arena(n int) []int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, best := &f.stock, -1
	for i, a := range st.arenas {
		if cap(a) >= n && (best < 0 || cap(a) < cap(st.arenas[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]int32, 0, n)
	}
	a := st.arenas[best]
	last := len(st.arenas) - 1
	st.arenas[best], st.arenas = st.arenas[last], st.arenas[:last]
	return a
}

// settle writes the routes of the settled tasks [lo, hi), whole iterations,
// onto their pages, successors as handles. A successor is in its task's
// iteration or the next, the two spans the producer keeps. A page's tasks
// settle together, so one arena, sized once, holds their routes.
func (f *feed) settle(lo, hi int32) {
	r := &f.scratch
	for lo < hi {
		sp := &f.prev
		if lo >= f.cur.start {
			sp = &f.cur
		}
		p := sp.pages[(lo-sp.start)>>pageBits]
		succ, dst := f.arena(f.inf.NumSuccs(lo, lo+p.n)), p.dst[:0]
		for o := int32(0); o < p.n; o++ {
			f.inf.Route(lo+o, r)
			succ = f.handles(succ, r.Local)
			p.r[o] = route{int32(len(succ)), int32(len(dst))}
			for k, node := range r.Dsts {
				succ = f.handles(succ, r.Waiters(k))
				dst = append(dst, dest{int32(node), int32(len(succ))})
			}
			p.reduce[o] = r.Reduce
		}
		p.r[p.n].dst = int32(len(dst))
		p.succ, p.dst = succ, dst
		lo += p.n
	}
}

// handles appends the handles of the tasks at positions pos, each in the
// iteration just inferred or the one before, to succ.
func (f *feed) handles(succ []int32, pos []int32) []int32 {
	cur, prev := &f.cur, &f.prev
	for _, q := range pos {
		sp := prev
		if q >= cur.start {
			sp = cur
		}
		succ = append(succ, sp.handle(q))
	}
	return succ
}

// pageRing is the event loop's table of the pages it holds, indexed by
// sequence number modulo its power-of-two length, which doubles whenever two
// held pages would share a slot. A handle names its page by the same number.
type pageRing struct{ slots []*page }

func (r *pageRing) at(h int32) *page {
	return r.slots[int(h>>pageBits)&(len(r.slots)-1)]
}

func (r *pageRing) put(p *page) {
	for len(r.slots) == 0 || r.slots[int(p.seq)&(len(r.slots)-1)] != nil {
		r.grow()
	}
	r.slots[int(p.seq)&(len(r.slots)-1)] = p
}

func (r *pageRing) drop(p *page) { r.slots[int(p.seq)&(len(r.slots)-1)] = nil }

// grow doubles the ring, re-placing the pages it holds: two pages apart in
// one length are apart in twice it.
func (r *pageRing) grow() {
	n := max(16, 2*len(r.slots))
	if n > seqMask+1 {
		panic(fmt.Sprintf("simulate: more than %d pages of tasks in flight", seqMask+1))
	}
	slots := make([]*page, n)
	for _, p := range r.slots {
		if p != nil {
			slots[int(p.seq)&(n-1)] = p
		}
	}
	r.slots = slots
}
