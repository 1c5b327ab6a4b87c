package simulate

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

// earlier is the queue's order: 1 if e pops before o, else 0. The order is
// total — no two events share a seq — so the pop sequence is a function of the
// pushes alone, whatever the heap's shape: that is the contract every golden
// makespan rests on. It is computed without a branch because the outcome is
// close to random: as a branch it mispredicted at every level of a sift.
func earlier(e, o *event) int {
	var lt, eq, sl int
	if e.time < o.time {
		lt = 1
	}
	if e.time == o.time {
		eq = 1
	}
	if e.seq < o.seq {
		sl = 1
	}
	return lt | eq&sl
}

// eventQueue is a 4-ary min-heap on (time, seq). Both sifts move a hole and
// write the travelling event once, where a swap would write it at every level.
type eventQueue struct {
	items []event
	seq   uint64
}

func (q *eventQueue) push(e event) {
	q.seq++
	e.seq = q.seq
	q.items = append(q.items, e)
	items := q.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if earlier(&e, &items[parent]) == 0 {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = e
}

func (q *eventQueue) pop() event {
	top := q.items[0]
	n := len(q.items) - 1
	last := q.items[n]
	q.items = q.items[:n]
	items := q.items
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		if first+4 <= n {
			a := first + earlier(&items[first+1], &items[first])
			b := first + 2 + earlier(&items[first+3], &items[first+2])
			min = a + (b-a)*earlier(&items[b], &items[a])
		} else {
			for c := first + 1; c < n; c++ {
				min += (c - min) * earlier(&items[c], &items[min])
			}
		}
		if earlier(&items[min], &last) == 0 {
			break
		}
		items[i] = items[min]
		i = min
	}
	if n > 0 {
		items[i] = last
	}
	return top
}

func (q *eventQueue) empty() bool { return len(q.items) == 0 }

// The per-node ready queues are sched.Heap: the same deterministic priority
// heap (and the same critical-path key) the real runtime dispatches with.
