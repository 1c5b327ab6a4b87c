package simulate

import "fmt"

// event is one scheduled simulator event.
//
// node ≥ 0: a kernel completes on that node; at is its task's position.
// node < 0: a hop lands. ^node is the delivery record it carries and at the
// position, in the record's destination list, of the node it lands on.
type event struct {
	time float64
	seq  uint64 // push order: ties in time pop in the order they were pushed
	node int32
	at   int32
}

// laneQueue is the event queue. It pops events in (time, seq) order, seq being
// the push count: the order is total, so the pop sequence is a function of the
// pushes alone — the contract every golden makespan rests on.
//
// It merges lanes, FIFOs whose pushes already come in that order:
//   - lane dst, for dst < P, holds the hops landing on node dst. sendHop
//     pushes them at recvEnd, which nicIn[dst] makes non-decreasing;
//   - every other lane holds the completions of one kernel duration, opened
//     the first time that exact duration is seen. dispatch pushes them at
//     now + dur, and now never decreases.
//
// A binary heap orders the non-empty lanes by their head events: at most P
// plus the number of durations, however many events are pending, and a push
// onto a non-empty lane does not touch it. A push earlier than its lane's tail would pop out
// of order, so it panics.
type laneQueue struct {
	seq   uint64
	lanes []lane
	heads []head    // the non-empty lanes, a heap on their head events
	durs  []float64 // durs[i] is the duration of lane len(lanes)-len(durs)+i
}

// lane is a FIFO: items[next:] are pending. It reuses its array, restarting
// at the front when it empties and moving its pending events there when the
// array is full and at least half spent.
type lane struct {
	items []event
	next  int
}

// head is a non-empty lane keyed by its head event's (time, seq).
type head struct {
	time float64
	seq  uint64
	lane int32
}

func (h *head) before(o *head) bool {
	return h.time < o.time || h.time == o.time && h.seq < o.seq
}

// durLane returns the lane of the completions of kernels that run dur. A run
// has a few distinct durations — one per kernel kind and node speed — so a
// scan finds it faster than a map would.
func (q *laneQueue) durLane(dur float64) int32 {
	first := len(q.lanes) - len(q.durs)
	for i, d := range q.durs {
		if d == dur {
			return int32(first + i)
		}
	}
	q.durs = append(q.durs, dur)
	q.lanes = append(q.lanes, lane{})
	return int32(len(q.lanes) - 1)
}

// push stamps e with the next seq and appends it to lane l.
func (q *laneQueue) push(l int32, e event) {
	q.seq++
	e.seq = q.seq
	ln := &q.lanes[l]
	if n := len(ln.items); n > 0 {
		if tail := ln.items[n-1].time; e.time < tail {
			panic(fmt.Sprintf("simulate: event %+v pushed onto lane %d at %v, behind its tail at %v", e, l, e.time, tail))
		}
		if n == cap(ln.items) && 2*ln.next >= n {
			ln.items, ln.next = ln.items[:copy(ln.items, ln.items[ln.next:])], 0
		}
		ln.items = append(ln.items, e)
		return
	}
	ln.items = append(ln.items, e)
	h := head{e.time, e.seq, l}
	q.heads = append(q.heads, h)
	i := len(q.heads) - 1
	for i > 0 && h.before(&q.heads[(i-1)/2]) {
		q.heads[i], i = q.heads[(i-1)/2], (i-1)/2
	}
	q.heads[i] = h
}

// pop removes and returns the least pending event. The queue must not be empty.
func (q *laneQueue) pop() event {
	l := q.heads[0].lane
	ln := &q.lanes[l]
	e := ln.items[ln.next]
	ln.next++
	var h head
	if ln.next < len(ln.items) {
		next := &ln.items[ln.next]
		h = head{next.time, next.seq, l}
	} else {
		ln.items, ln.next = ln.items[:0], 0
		last := len(q.heads) - 1
		h, q.heads = q.heads[last], q.heads[:last]
	}
	// Sift a hole down from the root and write h where it stops.
	heads, i := q.heads, 0
	for c := 1; c < len(heads); c = 2*i + 1 {
		if c+1 < len(heads) && heads[c+1].before(&heads[c]) {
			c++
		}
		if !heads[c].before(&h) {
			break
		}
		heads[i], i = heads[c], c
	}
	if len(heads) > 0 {
		heads[i] = h
	}
	return e
}

func (q *laneQueue) empty() bool { return len(q.heads) == 0 }

// The per-node ready queues are sched.Heap: the same deterministic priority
// queue (key buckets, not a heap) and the same critical-path key the real
// runtime dispatches with.
