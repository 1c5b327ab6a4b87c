package simulate

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
)

// TestEventQueuePopsInTimeSeqOrder holds the lanes to the queue's contract
// against a sorted reference. Pushes go to random lanes the way the simulator
// makes them: onto a node's arrival lane no earlier than its tail, onto a
// duration's lane at the last pop's time plus the duration, so each lane is
// monotone and nothing is earlier than the last pop. Times take few distinct
// values, so most events tie across lanes and seq decides, and pushes and
// pops interleave. Whatever the pushes, pop returns the pending event that is
// least on (time, seq).
func TestEventQueuePopsInTimeSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		nodes, durs := 1+rng.Intn(8), 1+rng.Intn(4)
		q := laneQueue{lanes: make([]lane, nodes)}
		tails := make([]float64, nodes)
		var pending []event
		now := 0.0
		pushes := 1 + rng.Intn(400)
		for pushed := 0; pushed < pushes || len(pending) > 0; {
			if pushed < pushes && (len(pending) == 0 || rng.Intn(5) < 3) {
				e := event{node: int32(pushed), at: int32(round)}
				var l int32
				if rng.Intn(2) == 0 {
					l = int32(rng.Intn(nodes))
					e.time = max(now, tails[l]) + float64(rng.Intn(3))/4
					tails[l] = e.time
				} else {
					dur := float64(rng.Intn(durs)) / 4
					l, e.time = q.durLane(dur), now+dur
				}
				q.push(l, e)
				e.seq = q.seq
				pending = append(pending, e)
				pushed++
				continue
			}
			sort.Slice(pending, func(a, b int) bool {
				x, y := pending[a], pending[b]
				return x.time < y.time || x.time == y.time && x.seq < y.seq
			})
			want := pending[0]
			pending = pending[1:]
			if got := q.pop(); got != want {
				t.Fatalf("round %d: popped %+v, the least pending event is %+v", round, got, want)
			}
			now = want.time
		}
		if !q.empty() {
			t.Fatalf("round %d: queue not empty after popping every push", round)
		}
	}
}

// TestEventQueueRejectsAnOutOfOrderPush: a push earlier than its lane's tail
// would pop out of order, so it panics and names the lane; the same time on
// another lane is fine.
func TestEventQueueRejectsAnOutOfOrderPush(t *testing.T) {
	q := laneQueue{lanes: make([]lane, 2)}
	q.push(0, event{time: 2})
	q.push(1, event{time: 1})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "lane 0 at 1, behind its tail at 2") {
			t.Fatalf("out-of-order push: recovered %q", msg)
		}
	}()
	q.push(0, event{time: 1})
}

// TestPoolsDrainWhenRunReturns: delivery records (whose destination ranges
// are the tree hops' relay lists) live only while something is in flight, a
// page only until its tasks have run and their tiles have landed, and the
// inference holds a task only until its route is on its page, so a finished
// run holds every record and every page on its free list, and no task at all.
func TestPoolsDrainWhenRunReturns(t *testing.T) {
	for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
		s, err := newSim(dag.NewLU(12), 16, dist.NewG2DBC(23), testMachine(), Options{Broadcast: mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		if len(s.records) == 0 || len(s.idle) != len(s.records) {
			t.Errorf("mode %v: %d of %d delivery records on the free list", mode, len(s.idle), len(s.records))
		}
		for d, r := range s.records {
			if r.pending != 0 || r.p != nil {
				t.Errorf("mode %v: record %d returned with pending=%d, holding a page", mode, d, r.pending)
			}
		}
		for _, p := range s.pages.slots {
			if p != nil {
				t.Errorf("mode %v: the event loop still holds page %d (%d of its tasks or deliveries left)", mode, p.seq, p.left)
			}
		}
		if s.window == 0 || s.held != 0 {
			t.Errorf("mode %v: the event loop still counts %d tasks on its pages (at most %d)", mode, s.held, s.window)
		}
		f := s.feed
		if f.peak == 0 || f.held.Load() != 0 || len(f.stock.pages) == 0 {
			t.Errorf("mode %v: %d tasks still on pages (at most %d), %d pages idle", mode, f.held.Load(), f.peak, len(f.stock.pages))
		}
		if f.live == 0 || f.inf.Live() != 0 {
			t.Errorf("mode %v: the inference still holds %d tasks (at most %d)", mode, f.inf.Live(), f.live)
		}
	}
}

// TestMemoryFollowsTheWindow: the simulator holds a window of iterations, not
// the graph. Doubling mt multiplies an LU iteration by about 4 and the graph
// by about 8; the event loop's window — the tasks on the pages it holds, a
// function of the event order alone — must grow like the former, and stay
// within a page of the window the inference held when the event loop drove
// it (4 234 and 14 097 tasks). The producer runs ahead of it by up to two
// iterations, one paged and waiting to be taken and one inferred while it
// waits, so the most tasks held at once on pages and unpaged, which depends
// on the two goroutines' timing, is at most the window plus two iterations.
// With the producer one iteration ahead it would be one, but the overlap is
// lost.
func TestMemoryFollowsTheWindow(t *testing.T) {
	held := func(mt int) (window, held, inferred, tasks int) {
		g := dag.NewLU(mt)
		s, err := newSim(g, 500, dist.NewG2DBC(23), PaperMachine(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		return s.window, int(s.feed.peak), s.feed.live, g.NumTasks()
	}
	small, smallHeld, smallInf, smallTasks := held(40)
	large, largeHeld, largeInf, largeTasks := held(80)
	t.Logf("LU(40) window %d of %d tasks, %d held on pages and unpaged, %d in the inference; LU(80) %d of %d, %d, %d",
		small, smallTasks, smallHeld, smallInf, large, largeTasks, largeHeld, largeInf)
	if ratio := float64(large) / float64(small); ratio > 5 || 4*large > largeTasks {
		t.Errorf("LU(40) window %d tasks, LU(80) %d (×%.1f, of %d): the window grows like the graph", small, large, ratio, largeTasks)
	}
	for _, c := range []struct{ mt, window, held, single int }{{40, small, smallHeld, 4234}, {80, large, largeHeld, 14097}} {
		if c.window > c.single+pageSize {
			t.Errorf("LU(%d): the event loop's window is %d tasks, over the single loop's %d by more than a page", c.mt, c.window, c.single)
		}
		if iter := c.mt * c.mt; c.held > c.window+2*iter { // LU's first iteration, its largest
			t.Errorf("LU(%d) held %d tasks on pages and unpaged: over the %d-task window and two %d-task iterations",
				c.mt, c.held, c.window, iter)
		}
	}
}
