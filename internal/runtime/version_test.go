package runtime

import (
	"fmt"
	"strings"
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/plan"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// ---- configurable test graph -------------------------------------------

const kTest dag.Kind = 200

// testTask describes one task of a hand-built program: its output tile and
// the tiles it reads, from which its dependencies are inferred. iter and
// panel place it in the dispatch order (sched.Key): lower iterations first,
// and within one a panel before everything else.
type testTask struct {
	out   [2]int
	ins   [][2]int
	iter  int32
	panel bool
}

// newTestGraph builds the program that submits tasks in order, task id as
// dag.Task{I: id}, for protocol tests.
func newTestGraph(tiles int, tasks []testTask) dag.Graph {
	return dag.Build(dag.Program{
		Name:  "test",
		Tiles: tiles,
		Tasks: func(_ int, submit func(dag.Task)) {
			for id, tk := range tasks {
				t := dag.Task{Kind: kTest, L: tk.iter, I: int32(id)}
				if tk.panel {
					t.Kind = dag.GETRF
				}
				submit(t)
			}
		},
		OutputTile: func(t dag.Task) (int, int) { return tasks[t.I].out[0], tasks[t.I].out[1] },
		InputTiles: func(t dag.Task, visit func(i, j int)) {
			for _, in := range tasks[t.I].ins {
				visit(in[0], in[1])
			}
		},
		Flops: func(dag.Task, int) float64 { return 1 },
	})
}

// outputVersions returns, by task id, the version (write epoch) of the tile
// each task of g writes, read from g's dependencies: 0 for a tile's first
// writer, the previous writer's version plus one after. It is the oracle the
// versions of plan.Compile are held to.
func outputVersions(g dag.Graph) []int32 {
	ver := make([]int32, g.NumTasks())
	dag.ForEachTask(g, func(t dag.Task) {
		i, j := g.OutputTile(t)
		ver[g.ID(t)] = inputVersion(g, ver, t, i, j) + 1
	})
	return ver
}

// inputVersion returns the version of tile (i, j) that task t reads: the
// largest output version among t's dependencies writing it, -1 — the initial
// contents — when none does.
func inputVersion(g dag.Graph, ver []int32, t dag.Task, i, j int) int32 {
	v := int32(-1)
	g.Dependencies(t, func(d dag.Task) {
		if di, dj := g.OutputTile(d); di == i && dj == j {
			v = max(v, ver[g.ID(d)])
		}
	})
	return v
}

// testDist maps tiles to nodes through a literal function.
type testDist struct {
	p     int
	owner func(i, j int) int
}

func (d testDist) Name() string       { return "testdist" }
func (d testDist) Nodes() int         { return d.p }
func (d testDist) Owner(i, j int) int { return d.owner(i, j) }

// ---- prevalidation ------------------------------------------------------

func TestPrevalidateRemoteInitialRead(t *testing.T) {
	// One task on node 1 reads tile (0,0) that nothing produces and node 0
	// owns: the protocol has no way to deliver it, so Run must fail up front
	// with a descriptive error instead of panicking inside an engine.
	g := newTestGraph(2, []testTask{
		{out: [2]int{1, 0}, ins: [][2]int{{0, 0}}},
	})
	d := testDist{p: 2, owner: func(i, j int) int { return i }}
	_, err := Run(g, d, 1, func(i, j int) *tile.Tile { return tile.New(1, 1) },
		func(task dag.Task, out *tile.Tile, inputs []*tile.Tile) error { return nil },
		Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "initial contents") {
		t.Fatalf("expected initial-contents error, got %v", err)
	}
}

func TestPrevalidateRemoteIntermediateRead(t *testing.T) {
	// Tile (0,0) is written twice on node 0 and each version is read on node
	// 1: the protocol sends a tile only after its last writer ran, so the read
	// of version 0 must fail up front, naming task, node, tile and version.
	g := newTestGraph(3, []testTask{
		{out: [2]int{0, 0}},                        // W0
		{out: [2]int{1, 0}, ins: [][2]int{{0, 0}}}, // reader of v0
		{out: [2]int{0, 0}},                        // W1
		{out: [2]int{2, 0}, ins: [][2]int{{0, 0}}}, // reader of v1
	})
	d := testDist{p: 2, owner: func(i, j int) int { return min(i, 1) }}
	_, err := Run(g, d, 1, func(i, j int) *tile.Tile { return tile.New(1, 1) },
		func(task dag.Task, out *tile.Tile, inputs []*tile.Tile) error { return nil },
		Options{}, nil)
	want := fmt.Sprintf("%v on node 1 reads remote tile (0, 0) at version 0, not its last", g.TaskOf(1))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("expected %q, got %v", want, err)
	}
}

func TestPrevalidateUnorderedIntermediateRead(t *testing.T) {
	// A local reader of an intermediate version with no ordering against the
	// next in-place writer: the read races the overwrite.
	g := newTestGraph(2, []testTask{
		{out: [2]int{0, 0}},                        // W0
		{out: [2]int{1, 0}, ins: [][2]int{{0, 0}}}, // reader of v0
		{out: [2]int{0, 0}},                        // W1, unordered wrt reader
	})
	d := testDist{p: 1, owner: func(i, j int) int { return 0 }}
	_, err := Run(g, d, 1, func(i, j int) *tile.Tile { return tile.New(1, 1) },
		func(task dag.Task, out *tile.Tile, inputs []*tile.Tile) error { return nil },
		Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "next writer") {
		t.Fatalf("expected unordered-read error, got %v", err)
	}
}

// TestPrevalidateMalformedGraphs: the graph defect the engines used to meet
// mid-run — a panic on a missing input buffer — is a compile error now.
func TestPrevalidateMalformedGraphs(t *testing.T) {
	// A local read of a tile no task writes: no node materializes it.
	unwritten := newTestGraph(2, []testTask{
		{out: [2]int{0, 0}, ins: [][2]int{{0, 1}}},
	})
	_, err := Run(unwritten, testDist{p: 1, owner: func(i, j int) int { return 0 }}, 1,
		func(i, j int) *tile.Tile { return tile.New(1, 1) },
		func(task dag.Task, out *tile.Tile, inputs []*tile.Tile) error { return nil },
		Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no task writes") {
		t.Fatalf("expected unwritten-tile error, got %v", err)
	}
}

func TestPrevalidateOwnerOutOfRange(t *testing.T) {
	g := dag.NewLU(3)
	d := testDist{p: 2, owner: func(i, j int) int { return 5 }}
	_, err := Run(g, d, 2, GenDiagDominant(3, 2, 1), LUKernel, Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("expected out-of-range error, got %v", err)
	}
}

// TestPrevalidateAcceptsBuiltinGraphs: every built-in graph family compiles
// — a compiled plan is a validated one — under representative distributions
// (each paired with the same wrapper the public entry points use).
func TestPrevalidateAcceptsBuiltinGraphs(t *testing.T) {
	d := dist.NewG2DBC(5)
	cases := []struct {
		g dag.Graph
		d dist.Distribution
	}{
		{dag.NewLU(6), d},
		{dag.NewCholesky(6), d},
		{dag.NewReplicatedLU(6, 2), dist.NewReplicated(d, 2, 6)},
	}
	for _, c := range cases {
		if _, err := plan.Compile(c.g, c.d); err != nil {
			t.Errorf("%s rejected: %v", c.g.Name(), err)
		}
	}
}

// ---- real-run tracing ---------------------------------------------------

// TestRealRunTrace: a real distributed factorization with a Recorder attached
// produces a consistent wall-clock trace that validates and exports.
func TestRealRunTrace(t *testing.T) {
	const mt, b = 8, 4
	d := dist.NewG2DBC(5)
	rec := &trace.Recorder{}
	orig := matrix.NewDiagDominant(mt, b, 7)
	fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 7),
		Options{Workers: 3, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res := matrix.ResidualLU(orig, fact); res > 1e-11 {
		t.Errorf("residual %g", res)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if want := dag.NewLU(mt).NumTasks(); len(rec.Tasks) != want {
		t.Errorf("trace has %d task events, want %d", len(rec.Tasks), want)
	}
	if int64(len(rec.Messages)) != rep.Stats.TotalMessages() {
		t.Errorf("trace has %d messages, runtime sent %d",
			len(rec.Messages), rep.Stats.TotalMessages())
	}
	if mk, el := rec.Makespan(), rep.Elapsed.Seconds(); mk <= 0 || mk > el {
		t.Errorf("trace makespan %v outside (0, %v]", mk, el)
	}
	u := rec.Utilization(3, d.Nodes())
	if len(u) != d.Nodes() {
		t.Errorf("utilization for %d nodes, want %d", len(u), d.Nodes())
	}
	var gantt, msgs strings.Builder
	if err := rec.GanttCSV(&gantt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt.String(), "GETRF") {
		t.Errorf("Gantt CSV missing kernels: %q", gantt.String()[:80])
	}
	if err := rec.MessagesCSV(&msgs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msgs.String(), "src,dst") {
		t.Error("messages CSV missing header")
	}
}

// ---- bounded tile lifetime ----------------------------------------------

// TestPeakWorkingSetLU44 runs LU on the paper's 44-node cluster size: with
// received tiles released after their last consumer, the working-set peak
// must stay strictly below the old keep-everything footprint.
func TestPeakWorkingSetLU44(t *testing.T) {
	const mt, b = 24, 4
	d := dist.NewG2DBC(44)
	_, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 11), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sumPeak, sumFoot := 0, 0
	for n, peak := range rep.PeakTilesPerNode {
		foot := rep.OwnedTilesPerNode[n] + rep.ReceivedTilesPerNode[n]
		if peak > foot {
			t.Errorf("node %d peak %d above whole-run footprint %d", n, peak, foot)
		}
		if peak < rep.OwnedTilesPerNode[n] {
			t.Errorf("node %d peak %d below owned tiles %d", n, peak, rep.OwnedTilesPerNode[n])
		}
		sumPeak += peak
		sumFoot += foot
	}
	if sumPeak >= sumFoot {
		t.Errorf("total peak %d did not decrease below whole-run footprint %d", sumPeak, sumFoot)
	}
}
