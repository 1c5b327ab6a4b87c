package simulate

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from this build's simulator")

// goldenGraph is one (graph, distribution, machine) row family of the pinned
// table; every family is run under all 4 option combinations.
type goldenGraph struct {
	name    string
	graph   dag.Graph
	dist    func() dist.Distribution
	b       int
	machine Machine
}

func goldenGraphs() []goldenGraph {
	return []goldenGraph{
		// Zero latency and commensurate kernel/transfer times: most events
		// share their instant with others, so the tie order is what is held.
		{"lu16-g2dbc23", dag.NewLU(16), func() dist.Distribution { return dist.NewG2DBC(23) }, 16, testMachine()},
		{"chol16-sbc10", dag.NewCholesky(16), func() dist.Distribution { return dist.NewSBCPair(5) }, 16,
			Machine{Workers: 2, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 1e-6}},
		{"replu12c2-g2dbc7", dag.NewReplicatedLU(12, 2),
			func() dist.Distribution { return dist.NewReplicated(dist.NewG2DBC(7), 2, 12) }, 16,
			Machine{Workers: 3, FlopsPerWorker: 1e9, LinkBandwidth: 5e8, Latency: 2e-6}},
	}
}

// goldenRun simulates one table cell twice — recorder on and off must be the
// same run — and renders everything the table holds as one text line.
func goldenRun(t *testing.T, gg goldenGraph, tree, skew bool) string {
	t.Helper()
	d := gg.dist()
	opt := Options{}
	if tree {
		opt.Broadcast = cluster.BroadcastTree
	}
	if skew {
		opt.NodeSpeed = make([]float64, d.Nodes())
		for n := range opt.NodeSpeed {
			opt.NodeSpeed[n] = 0.5 + 0.375*float64(n%4)
		}
	}
	plain, err := Run(gg.graph, gg.b, d, gg.machine, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	opt.Recorder = rec
	res, err := Run(gg.graph, gg.b, gg.dist(), gg.machine, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultLine(plain), resultLine(res); a != b {
		t.Fatalf("recorder changes the run:\n off %s\n on  %s", a, b)
	}
	return fmt.Sprintf("%s timeline=%016x", resultLine(res), timelineHash(rec))
}

// resultLine renders the scalar fields exactly (the makespan as its float
// bits) and the per-node vectors as one hash.
func resultLine(r *Result) string {
	h := fnv.New64a()
	for n := range r.BusyTime {
		hashU64(h, uint64(r.SentBytes[n]), uint64(r.RecvBytes[n]), math.Float64bits(r.BusyTime[n]), uint64(r.TasksPerNode[n]))
	}
	return fmt.Sprintf("makespan=%016x messages=%d bytes=%d hops=%d forwards=%d reduceBytes=%d nodes=%016x",
		math.Float64bits(r.Makespan), r.Messages, r.Bytes, r.Hops, r.Forwards, r.ReduceBytes, h.Sum64())
}

// timelineHash folds every recorded kernel interval and message, in recorded
// order and with its exact times, into one value.
func timelineHash(rec *trace.Recorder) uint64 {
	h := fnv.New64a()
	for _, e := range rec.Tasks {
		hashU64(h, uint64(e.Node), uint64(e.Slot), uint64(e.Task.Kind), uint64(e.Task.L), uint64(e.Task.I), uint64(e.Task.J),
			math.Float64bits(e.Start), math.Float64bits(e.End))
	}
	for _, e := range rec.Messages {
		hashU64(h, uint64(e.Src), uint64(e.Dst), math.Float64bits(e.Depart), math.Float64bits(e.Arrive), uint64(e.Bytes))
	}
	return h.Sum64()
}

func hashU64(h hash.Hash64, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// TestGoldenTimelines pins the simulator's output exactly: makespan bits,
// every traffic counter, the per-node vectors and the full ordered timeline
// with its timestamps, over graphs × {flat, tree} × {homogeneous, skewed
// speeds}. testdata/golden.txt was generated before the
// event loop was rebuilt; `go test -run GoldenTimelines -update` rewrites it
// and is only right after a deliberate model change.
func TestGoldenTimelines(t *testing.T) {
	path := filepath.Join("testdata", "golden.txt")
	var got []string
	for _, gg := range goldenGraphs() {
		for mask := 0; mask < 4; mask++ {
			tree, skew := mask&1 != 0, mask&2 != 0
			name := fmt.Sprintf("%s/tree=%t/skew=%t", gg.name, tree, skew)
			got = append(got, name+" "+goldenRun(t, gg, tree, skew))
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s holds %d rows, the table has %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestGoldenPaperPair holds the two paper-scale simulations the benchmark
// times (bench/sim.go's goldens) inside tier-1's long mode.
func TestGoldenPaperPair(t *testing.T) {
	if testing.Short() {
		t.Skip("two mt=100 simulations")
	}
	lu, chol, dLU, dChol := paperPair(t)
	for _, c := range []struct {
		g        dag.Graph
		d        dist.Distribution
		makespan float64
		messages int64
	}{
		{lu, dLU, 3.888064666666993, 38679},
		{chol, dChol, 2.2683042499999617, 25729},
	} {
		res, err := Run(c.g, 500, c.d, PaperMachine(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != c.makespan || res.Messages != c.messages {
			t.Errorf("%s(100) on %s: makespan %v, %d messages; golden %v, %d",
				c.g.Name(), c.d.Name(), res.Makespan, res.Messages, c.makespan, c.messages)
		}
	}
}
