package simulate

import (
	"math"
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/trace"
)

// TestRecorderConsistency runs a traced simulation and cross-checks the
// trace against the simulator's own accounting.
func TestRecorderConsistency(t *testing.T) {
	g := dag.NewLU(10)
	d := dist.NewTwoDBC(2, 3)
	m := Machine{Workers: 3, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 1e-6}
	rec := &trace.Recorder{}
	res, err := Run(g, 8, d, m, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if len(rec.Tasks) != g.NumTasks() {
		t.Fatalf("trace has %d task events, want %d", len(rec.Tasks), g.NumTasks())
	}
	if int64(len(rec.Messages)) != res.Messages {
		t.Fatalf("trace has %d messages, simulator counted %d", len(rec.Messages), res.Messages)
	}
	if mk := rec.Makespan(); math.Abs(mk-res.Makespan) > 1e-9*res.Makespan {
		t.Fatalf("trace makespan %v vs simulator %v", mk, res.Makespan)
	}
	busy := rec.BusyPerNode(d.Nodes())
	if len(busy) != d.Nodes() {
		t.Fatalf("BusyPerNode length %d, want %d", len(busy), d.Nodes())
	}
	for n := range busy {
		if math.Abs(busy[n]-res.BusyTime[n]) > 1e-9 {
			t.Fatalf("node %d busy %v vs %v", n, busy[n], res.BusyTime[n])
		}
	}
	// Kind breakdown covers all kernels.
	kb := rec.KindBreakdown()
	if kb["GETRF"] <= 0 || kb["GEMM"] <= 0 {
		t.Fatalf("KindBreakdown = %v", kb)
	}
	// Mean utilization is the run's busy time over its worker capacity.
	u := rec.Utilization(m.Workers, d.Nodes())
	sum, total := 0.0, 0.0
	for n, v := range u {
		sum += v
		total += res.BusyTime[n]
	}
	if eff := total / (res.Makespan * float64(d.Nodes()*m.Workers)); eff <= 0 || eff > 1 || math.Abs(sum/float64(len(u))-eff) > 1e-9 {
		t.Fatalf("mean utilization %v vs busy share %v", sum/float64(len(u)), eff)
	}
}

func TestRecorderOffByDefault(t *testing.T) {
	g := dag.NewLU(4)
	if _, err := Run(g, 8, dist.NewTwoDBC(2, 2), PaperMachine(), Options{}); err != nil {
		t.Fatal(err)
	}
}
