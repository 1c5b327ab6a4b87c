package runtime

import (
	"math"
	"sort"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/sched"
	"anybc/internal/simulate"
	"anybc/internal/trace"
)

// dispatchOrder extracts the per-node kernel dispatch order of a recorded
// run: task events sorted stably by start time, grouped by node.
func dispatchOrder(rec *trace.Recorder, p int) [][]dag.Task {
	evs := append([]trace.TaskEvent(nil), rec.Tasks...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	out := make([][]dag.Task, p)
	for _, e := range evs {
		out[e.Node] = append(out[e.Node], e.Task)
	}
	return out
}

// TestRealDispatchMatchesSimulatorOrder is the sim-vs-real fidelity
// cross-check: with one worker per node and a single-node distribution —
// where scheduling is the only degree of freedom, with no communication
// nondeterminism — the real runtime must dispatch tasks in exactly the order
// the simulator's priority policy predicts for the same graph and
// distribution. Both substrates share sched.Heap and sched.Key, both seed
// the queue in task-id order and release successors in graph visit order, so
// any divergence is a scheduling regression on one side.
func TestRealDispatchMatchesSimulatorOrder(t *testing.T) {
	const mt, b = 6, 4
	d := dist.NewTwoDBC(1, 1)
	m := simulate.Machine{Workers: 1, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 1e-6}

	cases := []struct {
		name string
		g    dag.Graph
		run  func(rec *trace.Recorder) error
	}{
		{"LU", dag.NewLU(mt), func(rec *trace.Recorder) error {
			_, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 1), Options{Workers: 1, Recorder: rec})
			return err
		}},
		{"Cholesky", dag.NewCholesky(mt), func(rec *trace.Recorder) error {
			_, _, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 1), Options{Workers: 1, Recorder: rec})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			simRec := &trace.Recorder{}
			if _, err := simulate.Run(c.g, b, d, m, simulate.Options{Recorder: simRec}); err != nil {
				t.Fatal(err)
			}
			realRec := &trace.Recorder{}
			if err := c.run(realRec); err != nil {
				t.Fatal(err)
			}
			simOrd := dispatchOrder(simRec, 1)[0]
			realOrd := dispatchOrder(realRec, 1)[0]
			if len(simOrd) != len(realOrd) || len(simOrd) != c.g.NumTasks() {
				t.Fatalf("dispatch counts differ: sim %d, real %d, graph %d",
					len(simOrd), len(realOrd), c.g.NumTasks())
			}
			for i := range simOrd {
				if simOrd[i] != realOrd[i] {
					t.Fatalf("dispatch %d diverges: simulator ran %v, runtime ran %v",
						i, simOrd[i], realOrd[i])
				}
			}
		})
	}
}

// TestEngineReadyQueueIsNotLIFO guards the bug this heap replaced: with the
// old LIFO slice, a freshly pushed trailing update preempted an
// already-ready panel solve. The shared heap must dispatch the critical-path
// task first regardless of push order.
func TestEngineReadyQueueIsNotLIFO(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(1, 1)
	cl := cluster.New(1)
	defer cl.Close()
	e := testEngine(t, 0, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel)

	// One node owns everything, so its tasks are the whole plan.
	planIdx := map[dag.Task]int32{}
	for pt := int32(0); pt < int32(len(e.remaining)); pt++ {
		planIdx[e.pl.Task(pt)] = pt
	}
	trsm := planIdx[dag.Task{Kind: dag.TRSMRow, L: 0, I: 1}]
	gemm := planIdx[dag.Task{Kind: dag.GEMMLU, L: 0, I: 1, J: 1}]
	getrf1 := planIdx[dag.Task{Kind: dag.GETRF, L: 1, I: 1, J: 1}]

	// Push in an order LIFO would invert: the last push is the lowest
	// priority, the first push the highest.
	e.pushReady(trsm)
	e.pushReady(getrf1)
	e.pushReady(gemm)
	want := []int32{trsm, gemm, getrf1}
	for i, w := range want {
		if got := e.ready.Pop(); got != w {
			t.Fatalf("pop %d = task %v, want %v", i, e.pl.Task(got), e.pl.Task(w))
		}
	}
	// The engine's precomputed keys must be the shared policy's keys — the
	// same numbers the simulator orders by.
	for pt := int32(0); pt < int32(len(e.remaining)); pt++ {
		if task, key := e.pl.Task(pt), e.pl.Key(pt); key != sched.Key(task) {
			t.Fatalf("engine key for %v = %d, sched.Key = %d", task, key, sched.Key(task))
		}
	}
}

// TestSchedulerObservability checks the Report.Sched counters on a real
// multi-node run against the trace: per node, the kernels counted and the
// workers' busy time are the recorded tasks and their summed intervals, the
// ready-queue peak is sane, nodes that start without runnable work accumulate
// stall time, and the recorder's stall intervals agree with the report. A
// clean run records no fault row.
func TestSchedulerObservability(t *testing.T) {
	const mt, b = 8, 4
	d := dist.NewTwoDBC(2, 2)
	rec := &trace.Recorder{}
	_, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 3), Options{Workers: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sched) != d.Nodes() {
		t.Fatalf("Sched has %d entries for %d nodes", len(rep.Sched), d.Nodes())
	}
	recorded, kernel := make([]int, d.Nodes()), make([]float64, d.Nodes())
	for _, ev := range rec.Tasks {
		recorded[ev.Node]++
		kernel[ev.Node] += ev.End - ev.Start
	}
	totalStall := 0.0
	for node, s := range rep.Sched {
		if recorded[node] != rep.TasksPerNode[node] {
			t.Errorf("node %d recorded %d kernels, reports %d", node, recorded[node], rep.TasksPerNode[node])
		}
		busy := 0.0
		for _, sec := range s.WorkerBusySeconds {
			busy += sec
		}
		if math.Abs(busy-kernel[node]) > 1e-6 {
			t.Errorf("node %d workers busy %v s, recorded kernel time %v s", node, busy, kernel[node])
		}
		if rep.TasksPerNode[node] > 0 && s.ReadyPeak < 1 {
			t.Errorf("node %d ran tasks with ReadyPeak %d", node, s.ReadyPeak)
		}
		if s.ReadyPeak > rep.TasksPerNode[node] {
			t.Errorf("node %d ReadyPeak %d exceeds its %d tasks", node, s.ReadyPeak, rep.TasksPerNode[node])
		}
		if s.StallSeconds < 0 {
			t.Errorf("node %d negative stall %v", node, s.StallSeconds)
		}
		totalStall += s.StallSeconds
	}
	// Only node 0 owns tile (0,0) under 2DBC(2x2): every other node starts
	// with a free worker and an empty ready queue, so some stall is certain.
	if totalStall <= 0 {
		t.Error("multi-node run recorded zero total stall time")
	}
	recStall := 0.0
	for _, s := range rec.Stalls {
		recStall += (s.End - s.Start) * s.Weight
	}
	if math.Abs(recStall-totalStall) > 1e-6 {
		t.Errorf("recorder stall %v differs from report stall %v", recStall, totalStall)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}
