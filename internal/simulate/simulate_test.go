package simulate

import (
	"math"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
)

// testMachine is a small deterministic machine: 2 workers at 1 Gflop/s,
// 1 GB/s links, zero latency.
func testMachine() Machine {
	return Machine{Workers: 2, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 0}
}

func TestSingleNodeSingleWorkerIsSerialTime(t *testing.T) {
	g := dag.NewLU(6)
	m := Machine{Workers: 1, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 0}
	res, err := Run(g, 32, dist.NewTwoDBC(1, 1), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := g.TotalFlops(32) / 1e9
	if math.Abs(res.Makespan-want) > 1e-9*want {
		t.Fatalf("makespan %v, want serial time %v", res.Makespan, want)
	}
	if res.Messages != 0 || res.Bytes != 0 {
		t.Fatalf("single node communicated: %d messages", res.Messages)
	}
	if got := res.GFlops(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("GFlops = %v, want 1", got)
	}
}

func TestMakespanAtLeastCriticalPath(t *testing.T) {
	g := dag.NewCholesky(10)
	m := testMachine()
	for _, d := range []dist.Distribution{dist.NewTwoDBC(2, 2), dist.NewSBCPair(4)} {
		res, err := Run(g, 16, d, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cp := dag.CriticalPathFlops(g, 16) / m.FlopsPerWorker
		if res.Makespan < cp-1e-12 {
			t.Errorf("%s: makespan %v below critical path %v", d.Name(), res.Makespan, cp)
		}
		lower := g.TotalFlops(16) / (float64(d.Nodes()*m.Workers) * m.FlopsPerWorker)
		if res.Makespan < lower-1e-12 {
			t.Errorf("%s: makespan %v below compute bound %v", d.Name(), res.Makespan, lower)
		}
	}
}

func TestMessagesMatchStructuralCount(t *testing.T) {
	g := dag.NewLU(12)
	for _, d := range []dist.Distribution{
		dist.NewTwoDBC(2, 3), dist.NewG2DBC(7), dist.NewG2DBC(10),
	} {
		res, err := Run(g, 8, d, testMachine(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := dag.CommVolumeTiles(g, d.Owner)
		if res.Messages != want {
			t.Errorf("%s: %d messages, structural count %d", d.Name(), res.Messages, want)
		}
		if res.Bytes != want*8*8*8 {
			t.Errorf("%s: %d bytes, want %d", d.Name(), res.Bytes, want*8*64)
		}
	}
}

// TestMessagesCarryTheProgramsTileSizes: every message carries one b×b tile,
// 8·b² bytes, on the logical ledger and on the wire — Bytes is 8·b² per
// message, and every node's sent and received bytes add up to 8·b² per hop —
// for the Cholesky and replicated LU graphs under tree broadcast, where hops
// and messages differ.
func TestMessagesCarryTheProgramsTileSizes(t *testing.T) {
	const mt, b = 8, 10
	base := dist.NewTwoDBC(2, 3)
	for _, c := range []struct {
		g dag.Graph
		d dist.Distribution
	}{
		{dag.NewCholesky(mt), base},
		{dag.NewReplicatedLU(mt, 2), dist.NewReplicated(base, 2, mt)},
	} {
		res, err := Run(c.g, b, c.d, testMachine(), Options{Broadcast: cluster.BroadcastTree})
		if err != nil {
			t.Fatal(err)
		}
		var sent, recv int64
		for n := range res.SentBytes {
			sent, recv = sent+res.SentBytes[n], recv+res.RecvBytes[n]
		}
		if want := int64(8*b*b) * res.Messages; res.Bytes != want {
			t.Errorf("%s: %d bytes for %d messages, want %d", c.g.Name(), res.Bytes, res.Messages, want)
		}
		if want := int64(8*b*b) * res.Hops; sent != want || recv != want {
			t.Errorf("%s: %d bytes sent, %d received over %d hops, want %d", c.g.Name(), sent, recv, res.Hops, want)
		}
	}
}

func TestMoreWorkersNeverSlower(t *testing.T) {
	g := dag.NewLU(10)
	d := dist.NewTwoDBC(2, 2)
	prev := math.Inf(1)
	for _, w := range []int{1, 2, 4, 8} {
		m := testMachine()
		m.Workers = w
		res, err := Run(g, 16, d, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > prev*(1+1e-9) {
			t.Errorf("workers=%d: makespan %v worse than with fewer workers %v", w, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}

func TestCommBoundRegime(t *testing.T) {
	// With a crippled network, the makespan must be dominated by transfer
	// time: at least total bytes / (P · bandwidth).
	g := dag.NewLU(8)
	d := dist.NewTwoDBC(2, 2)
	m := testMachine()
	m.LinkBandwidth = 1e3 // 1 KB/s
	res, err := Run(g, 8, d, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(res.Bytes) / (4 * m.LinkBandwidth)
	if res.Makespan < bound {
		t.Errorf("makespan %v below aggregate NIC bound %v", res.Makespan, bound)
	}
	// And it must far exceed the pure-compute makespan.
	fast, _ := Run(g, 8, d, testMachine(), Options{})
	if res.Makespan < 10*fast.Makespan {
		t.Errorf("crippled network not slower: %v vs %v", res.Makespan, fast.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	g := dag.NewCholesky(12)
	d := dist.NewSBCPair(5)
	a, err := Run(g, 16, d, testMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, 16, d, testMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Messages != b.Messages {
		t.Fatalf("simulation not deterministic: %v/%d vs %v/%d",
			a.Makespan, a.Messages, b.Makespan, b.Messages)
	}
}

// TestG2DBCBeats2DBCForPrimeP reproduces the paper's headline claim in the
// simulator: for P = 23 at a reasonable matrix size, G-2DBC on all 23 nodes
// outperforms the degenerate 23x1 2DBC grid.
func TestG2DBCBeats2DBCForPrimeP(t *testing.T) {
	const mt, b = 60, 500
	g := dag.NewLU(mt)
	m := PaperMachine()
	bad, err := Run(g, b, dist.NewTwoDBC(23, 1), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Run(g, b, dist.NewG2DBC(23), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if good.GFlops() <= bad.GFlops() {
		t.Errorf("G-2DBC(23) %.1f GF/s did not beat 2DBC(23x1) %.1f GF/s",
			good.GFlops(), bad.GFlops())
	}
}

func TestValidation(t *testing.T) {
	g := dag.NewLU(2)
	if _, err := Run(g, 4, dist.NewTwoDBC(1, 1), Machine{}, Options{}); err == nil {
		t.Error("invalid machine accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Machine{
		{Workers: 0, FlopsPerWorker: 1, LinkBandwidth: 1},
		{Workers: 1, FlopsPerWorker: 0, LinkBandwidth: 1},
		{Workers: 1, FlopsPerWorker: 1, LinkBandwidth: 0},
		{Workers: 1, FlopsPerWorker: 1, LinkBandwidth: 1, Latency: -1},
		{Workers: 1, FlopsPerWorker: nan, LinkBandwidth: 1},
		{Workers: 1, FlopsPerWorker: inf, LinkBandwidth: 1},
		{Workers: 1, FlopsPerWorker: 1, LinkBandwidth: nan},
		{Workers: 1, FlopsPerWorker: 1, LinkBandwidth: inf},
		{Workers: 1, FlopsPerWorker: 1, LinkBandwidth: 1, Latency: nan},
		{Workers: 1, FlopsPerWorker: 1, LinkBandwidth: 1, Latency: inf},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("machine %+v accepted", m)
		}
	}
	if err := PaperMachine().Validate(); err != nil {
		t.Errorf("PaperMachine invalid: %v", err)
	}
}
