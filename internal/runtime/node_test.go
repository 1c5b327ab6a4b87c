package runtime

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/plan"
	"anybc/internal/tile"
)

// TestUrgentTaskOvertakesReadyWork: dispatch order is the heap's priority
// order for every worker count, because nothing sits between the heap and a
// free worker. Two workers are held inside iteration-0 kernels while two
// iteration-1 updates are ready; the kernel that then finishes releases the
// iteration-1 panel, and that panel — not one of the updates that were ready
// first — must be the next kernel to start. (With a queue of 2·Workers
// dispatched jobs between heap and workers, both updates sat in it ahead of
// the panel.)
func TestUrgentTaskOvertakesReadyWork(t *testing.T) {
	const holdA, holdB, updA, updB, panel = 0, 1, 2, 3, 4
	g := newTestGraph(5, []testTask{
		holdA: {out: [2]int{0, 0}},
		holdB: {out: [2]int{1, 0}},
		updA:  {out: [2]int{2, 0}, iter: 1},
		updB:  {out: [2]int{3, 0}, iter: 1},
		panel: {out: [2]int{4, 0}, ins: [][2]int{{0, 0}}, iter: 1, panel: true}, // reads holdA's tile
	})
	d := testDist{p: 1, owner: func(i, j int) int { return 0 }}

	started := make(chan int, g.NumTasks()) // every kernel start, in order
	gates := map[int]chan struct{}{holdA: make(chan struct{}), holdB: make(chan struct{})}
	kern := func(task dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		id := int(task.I)
		started <- id
		if gate := gates[id]; gate != nil {
			<-gate
		}
		return nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(g, d, 1, func(i, j int) *tile.Tile { return tile.New(1, 1) },
			kern, Options{Workers: 2}, nil)
		done <- err
	}()
	// Both workers are inside the iteration-0 kernels; the two updates wait in
	// the heap.
	if a, b := <-started, <-started; a+b != holdA+holdB {
		t.Fatalf("tasks %d and %d started first, want the two iteration-0 tasks", a, b)
	}
	// holdB stays held until the next kernel has started, so exactly one
	// worker — the one that releases the panel — decides what that is.
	close(gates[holdA])
	third := <-started
	close(gates[holdB])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if third != panel {
		t.Fatalf("task %d started after task %d finished: the panel (task %d) it released must start ahead of the ready updates %d and %d",
			third, holdA, panel, updA, updB)
	}
}

// engineGoroutines counts the goroutines inside an engine method: the nodes'
// run calls, and everything else — what a node runs on.
func engineGoroutines() (runs, others int) {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		switch {
		case !strings.Contains(g, "anybc/internal/runtime.(*engine)."):
		case strings.Contains(g, "anybc/internal/runtime.(*engine).run("):
			runs++
		default:
			others++
		}
	}
	return runs, others
}

// TestNodeGoroutineCensus: a node is its W workers and nothing else — no
// receiver, no loop goroutine: senders take messages in themselves, and each
// node's run call is one of its workers. Mid-run a P-node job holds P
// goroutines in run and P·(W−1) more in the engine. Once RunPlan has
// returned, on a private cluster or a shared one, every one of them is
// gone.
func TestNodeGoroutineCensus(t *testing.T) {
	const mt, b, W = 6, 4, 2
	d := dist.NewTwoDBC(2, 2)
	P := d.Nodes()
	pl, err := plan.Compile(dag.NewLU(mt), d)
	if err != nil {
		t.Fatal(err)
	}
	await := func(what string, wantRuns, wantOthers int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			runs, others := engineGoroutines()
			if runs == wantRuns && others == wantOthers {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines in engine.run and %d more in the engine, want %d and %d",
					what, runs, others, wantRuns, wantOthers)
			}
			time.Sleep(time.Millisecond)
		}
	}
	await("before any run", 0, 0)

	shared := cluster.New(P)
	defer shared.Close()
	cases := []struct {
		name   string
		opt    Options
		others int // engine goroutines outside run, per node
	}{
		{"private cluster", Options{Workers: W}, W - 1},
		{"shared cluster", Options{Workers: W, Cluster: shared}, W - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The first panel holds the whole graph back: node 0 is inside it,
			// every other node waits for tiles.
			gate := make(chan struct{})
			kern := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
				if task.Kind == dag.GETRF && task.L == 0 {
					<-gate
				}
				return LUKernel(task, out, in)
			}
			done := make(chan error, 1)
			go func() {
				_, err := RunPlan(pl, GenDiagDominant(mt, b, 1), kern, tc.opt, nil)
				done <- err
			}()
			await("mid-run", P, P*tc.others)
			close(gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			await("after RunPlan returned", 0, 0)
		})
	}
}

// TestManySmallTasksOnFourWorkers drives the node lock hard: tiny tiles, four
// workers a node all publishing and popping through it while senders take
// their messages in, flat and tree transports, LU and Cholesky. The factors
// must be the sequential ones, bit for bit. CI runs it under -race -count=10.
func TestManySmallTasksOnFourWorkers(t *testing.T) {
	const mt, b = 14, 2
	wantLU := matrix.NewDiagDominant(mt, b, 11)
	if err := matrix.FactorLU(wantLU); err != nil {
		t.Fatal(err)
	}
	wantChol := matrix.NewSPD(mt, b, 12)
	if err := matrix.FactorCholesky(wantChol); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
		opt := Options{Workers: 4, Broadcast: mode}
		got, _, err := FactorLU(mt, b, dist.NewG2DBC(7), GenDiagDominant(mt, b, 11), opt)
		if err != nil {
			t.Fatalf("LU %s: %v", mode, err)
		}
		identicalLU(t, fmt.Sprintf("LU %s", mode), wantLU, got, mt)
		gotChol, _, err := FactorCholesky(mt, b, dist.NewSBCPair(4), GenSPD(mt, b, 12), opt)
		if err != nil {
			t.Fatalf("Cholesky %s: %v", mode, err)
		}
		identicalCholesky(t, fmt.Sprintf("Cholesky %s", mode), wantChol, gotChol, mt)
	}
}

// TestNoMessageStrands: a node has no goroutine of its own to receive with.
// The sender takes its message in when it gets the node's lock without
// waiting; otherwise the message queues, and whoever holds the lock takes it
// in as it lets go. A message queued on a busy lock must never be left
// behind. Tree-broadcast LU on G-2DBC(7), two workers a node and kernels that
// sleep ≈ 100 µs keep many senders — workers publishing, nodes relaying hops —
// delivering to nodes whose own workers hold the lock. The second case adds a
// seam that delays every hop by up to 200 µs, from timer goroutines of its
// own, reordering them. Every run must give the sequential factors bit for
// bit, take in exactly the in-order run's versions, and leave no payload in
// flight.
func TestNoMessageStrands(t *testing.T) {
	const mt, b, W, rounds = 12, 4, 2, 3
	d := dist.NewG2DBC(7)
	gen := GenDiagDominant(mt, b, 5)
	want := matrix.NewDiagDominant(mt, b, 5)
	if err := matrix.FactorLU(want); err != nil {
		t.Fatal(err)
	}
	pl, err := plans.get(shape{graph: graphLU, mt: mt}, d)
	if err != nil {
		t.Fatal(err)
	}
	sleepy := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
		time.Sleep(100 * time.Microsecond)
		return LUKernel(task, out, in)
	}
	received := func(rep *Report) (n int64) {
		for _, r := range rep.ReceivedTilesPerNode {
			n += int64(r)
		}
		return n
	}
	_, base, err := runPlanDense(pl, mt, b, gen, LUKernel, Options{Broadcast: cluster.BroadcastTree})
	if err != nil {
		t.Fatal(err)
	}
	faithful := received(base)
	if faithful != base.Stats.TotalMessages() || base.Stats.TotalForwards() == 0 {
		t.Fatalf("faithful run took in %d versions of %d messages with %d relays: the shape pins nothing",
			faithful, base.Stats.TotalMessages(), base.Stats.TotalForwards())
	}
	for _, reorder := range []bool{false, true} {
		for round := range rounds {
			copt := cluster.Options{Broadcast: cluster.BroadcastTree}
			if reorder {
				copt.Net = newReorderNet(int64(round), 200*time.Microsecond)
			}
			cl := cluster.NewWithOptions(d.Nodes(), copt)
			got, rep, err := runPlanDense(pl, mt, b, gen, sleepy, Options{Workers: W, Cluster: cl})
			cl.Close()
			label := fmt.Sprintf("reordered %v, round %d", reorder, round)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			identicalLU(t, label, want, got, mt)
			if n := received(rep); n != faithful {
				t.Errorf("%s: %d versions taken in, %d in order", label, n, faithful)
			}
			if n := cl.PoolOutstanding(); n != 0 {
				t.Errorf("%s: %d payloads still in flight", label, n)
			}
		}
	}
}

// BenchmarkFactorOverhead is the overhead-bound factorization — the
// lu-overhead workload's shape: mt=24, b=8 on G-2DBC(44), kernels a small
// share of the time — on a compiled plan, so what it times is the engine's
// per-task cost: pop, resolve, publish, send, receive. ns/task and allocs/task
// are per task of the graph, over all 44 nodes.
func BenchmarkFactorOverhead(b *testing.B) {
	const mt, tb, P = 24, 8, 44
	d := dist.NewG2DBC(P)
	g := dag.NewLU(mt)
	pl, err := plan.Compile(g, d)
	if err != nil {
		b.Fatal(err)
	}
	gen := GenDiagDominant(mt, tb, 3)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunPlan(pl, gen, LUKernel, Options{Workers: workers}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			goruntime.ReadMemStats(&after)
			tasks := float64(b.N) * float64(g.NumTasks())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tasks, "ns/task")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tasks, "allocs/task")
		})
	}
}

// BenchmarkFactorLU24 is FactorLU at the lu-overhead workload's shape — mt=24,
// b=8 on G-2DBC(44), two workers — as a caller makes it: cold empties the
// plan cache before every call, so each call compiles as a fresh process's
// first call does; warm runs on the cached plan, as every later call of the
// shape does. The difference of the two is the compile the cache saves.
func BenchmarkFactorLU24(b *testing.B) {
	const mt, tb, P = 24, 8, 44
	d := dist.NewG2DBC(P)
	gen := GenDiagDominant(mt, tb, 3)
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					plans.reset()
					b.StartTimer()
				}
				if _, _, err := FactorLU(mt, tb, d, gen, Options{Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
