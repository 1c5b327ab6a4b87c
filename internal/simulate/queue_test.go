package simulate

import (
	"math/rand"
	"slices"
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
// are the tree hops' relay lists) live only while something is in flight, and
// the inference holds a task only until it has run, so a finished run holds
// every record on its free list and no task at all.
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
			if r.pending != 0 || len(r.dests) != 0 || len(r.edges) != 0 {
				t.Errorf("mode %v: record %d returned with pending=%d, %d dests, %d edges", mode, d, r.pending, len(r.dests), len(r.edges))
			}
		}
		if s.live == 0 || s.inf.Live() != 0 {
			t.Errorf("mode %v: the inference still holds %d tasks (at most %d)", mode, s.inf.Live(), s.live)
		}
		for node, at := range s.position {
			if at != -1 {
				t.Errorf("mode %v: node %d still holds position %d of a finished walk", mode, node, at)
			}
		}
	}
}

// TestMemoryFollowsTheWindow: the simulator holds a window of iterations, not
// the graph. Doubling mt multiplies an LU iteration by about 4 and the graph
// by about 8; the most tasks the inference held at once must grow like the
// former.
func TestMemoryFollowsTheWindow(t *testing.T) {
	held := func(mt int) (live, tasks int) {
		g := dag.NewLU(mt)
		s, err := newSim(g, 500, dist.NewG2DBC(23), PaperMachine(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		return s.live, g.NumTasks()
	}
	small, smallTasks := held(40)
	large, largeTasks := held(80)
	t.Logf("LU(40) held %d of %d tasks, LU(80) %d of %d", small, smallTasks, large, largeTasks)
	if ratio := float64(large) / float64(small); ratio > 5 || 4*large > largeTasks {
		t.Errorf("LU(40) held %d tasks, LU(80) %d (×%.1f, of %d): the window grows like the graph", small, large, ratio, largeTasks)
	}
}

// TestRouteFilesTheOwnerFilteredWalk: what route files under a destination is,
// element for element, what walking the producer's successors in the
// materialized graph and keeping the ones that destination owns yields — the
// walk every arrival used to repeat — and the destinations are the distinct
// remote owners in first-visit order.
func TestRouteFilesTheOwnerFilteredWalk(t *testing.T) {
	g, d := dag.NewLU(12), dist.NewG2DBC(23)
	s, err := newSim(g, 16, d, testMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	owner := func(task dag.Task) int32 { return int32(d.Owner(g.OutputTile(task))) }
	var messages int64
	dag.ForEachTask(g, func(task dag.Task) {
		pos, src := int32(g.ID(task)), owner(task)
		var wantDests []int32
		g.Successors(task, func(succ dag.Task) {
			if o := owner(succ); o != src && !slices.Contains(wantDests, o) {
				wantDests = append(wantDests, o)
			}
		})
		messages += int64(len(wantDests))
		s.infer(pos)
		rec := s.route(pos, src)
		if len(wantDests) == 0 {
			if rec >= 0 {
				t.Fatalf("%v: a record for a task with no remote consumer", task)
			}
			return
		}
		r := &s.records[rec]
		if len(r.dests) != len(wantDests) || r.pending != len(wantDests) {
			t.Fatalf("%v: %d destinations (pending %d), want %v", task, len(r.dests), r.pending, wantDests)
		}
		for at, dst := range r.dests {
			if dst.node != wantDests[at] {
				t.Fatalf("%v: destination %d is node %d, first-visit order gives %v", task, at, dst.node, wantDests)
			}
			var want []int32
			g.Successors(task, func(succ dag.Task) {
				if owner(succ) == dst.node {
					want = append(want, int32(g.ID(succ)))
				}
			})
			var got []int32
			for e := dst.head; e >= 0; e = r.edges[e].next {
				got = append(got, r.edges[e].pos)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v → node %d: filed %v, the filtered walk gives %v", task, dst.node, got, want)
			}
		}
		for at := range wantDests {
			s.deliver(rec, at)
		}
	})
	if s.res.Messages != messages || messages != dag.CommVolumeTiles(g, d.Owner) {
		t.Fatalf("route counted %d messages, the walks %d, the structural count is %d", s.res.Messages, messages, dag.CommVolumeTiles(g, d.Owner))
	}
	if len(s.idle) != len(s.records) {
		t.Fatalf("%d of %d records back after every delivery", len(s.idle), len(s.records))
	}
}
