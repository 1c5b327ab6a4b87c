package runtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/gcrm"
	"anybc/internal/matrix"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// flopsPerNode sums the flops of the kernels each of p nodes ran, from the
// run's recorded task intervals.
func flopsPerNode(rec *trace.Recorder, g dag.Graph, b, p int) []float64 {
	out := make([]float64, p)
	for _, e := range rec.Tasks {
		out[e.Node] += g.Flops(e.Task, b)
	}
	return out
}

// luDistributions returns a varied set of distributions for LU tests.
func luDistributions() []dist.Distribution {
	return []dist.Distribution{
		dist.NewTwoDBC(1, 1),
		dist.NewTwoDBC(2, 3),
		dist.NewTwoDBC(5, 1),
		dist.NewG2DBC(5),
		dist.NewG2DBC(10),
		dist.NewG2DBC(7),
	}
}

func cholDistributions(t *testing.T) []dist.Distribution {
	t.Helper()
	res, err := gcrm.Search(5, gcrm.SearchOptions{Seeds: 5, SizeFactor: 3, BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return []dist.Distribution{
		dist.NewTwoDBC(2, 2),
		dist.NewSBCPair(4), // P = 6
		dist.NewSBCEven(4), // P = 8
		dist.NewG2DBC(6),
		dist.NewDiagResolver("GCR&M(P=5)", res.Pattern),
		dist.NewSTS(9), // P = 12
	}
}

func TestDistributedLUMatchesSequential(t *testing.T) {
	const mt, b = 8, 6
	want := matrix.NewDiagDominant(mt, b, 5)
	if err := matrix.FactorLU(want); err != nil {
		t.Fatal(err)
	}
	for _, d := range luDistributions() {
		for _, workers := range []int{1, 4} {
			got, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 5), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", d.Name(), workers, err)
			}
			for i := 0; i < mt; i++ {
				for j := 0; j < mt; j++ {
					if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
						t.Fatalf("%s workers=%d: tile (%d,%d) differs from sequential",
							d.Name(), workers, i, j)
					}
				}
			}
			total := 0
			for _, n := range rep.TasksPerNode {
				total += n
			}
			if total != dag.NewLU(mt).NumTasks() {
				t.Fatalf("%s: executed %d tasks, want %d", d.Name(), total, dag.NewLU(mt).NumTasks())
			}
		}
	}
}

func TestDistributedCholeskyMatchesSequential(t *testing.T) {
	const mt, b = 8, 6
	want := matrix.NewSPD(mt, b, 9)
	if err := matrix.FactorCholesky(want); err != nil {
		t.Fatal(err)
	}
	for _, d := range cholDistributions(t) {
		for _, workers := range []int{1, 3} {
			got, _, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 9), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", d.Name(), workers, err)
			}
			for i := 0; i < mt; i++ {
				for j := 0; j <= i; j++ {
					if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
						t.Fatalf("%s workers=%d: tile (%d,%d) differs from sequential",
							d.Name(), workers, i, j)
					}
				}
			}
		}
	}
}

// TestMemoryAccounting: owned tiles sum to the matrix tile count, and
// received tiles per node equal the messages it received.
func TestMemoryAccounting(t *testing.T) {
	const mt, b = 10, 4
	d := dist.NewTwoDBC(2, 3)
	_, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	totalOwned := 0
	for _, n := range rep.OwnedTilesPerNode {
		totalOwned += n
	}
	if totalOwned != mt*mt {
		t.Errorf("owned tiles sum %d, want %d", totalOwned, mt*mt)
	}
	for rank, recvd := range rep.ReceivedTilesPerNode {
		msgs := byDst(rep.Stats, cluster.Messages)[rank]
		if int64(recvd) != msgs {
			t.Errorf("node %d holds %d received tiles but got %d messages", rank, recvd, msgs)
		}
	}
}

// TestNodesGenerateSideBySide: every node fills its own tiles on its own
// goroutine. Each node's first gen call waits until all P nodes have made
// theirs, which only ends if the P generations overlap; the factors must
// still be the sequential ones and every tile generated exactly once.
func TestNodesGenerateSideBySide(t *testing.T) {
	const mt, b = 6, 4
	d := dist.NewTwoDBC(2, 2)
	P := d.Nodes()
	base := GenDiagDominant(mt, b, 3)
	var (
		first    = make([]sync.Once, P)
		arrived  sync.WaitGroup
		calls    atomic.Int64
		overlaps atomic.Bool
	)
	arrived.Add(P)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	overlaps.Store(true)
	gen := func(i, j int) *tile.Tile {
		calls.Add(1)
		first[d.Owner(i, j)].Do(func() {
			arrived.Done()
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				overlaps.Store(false)
			}
		})
		return base(i, j)
	}
	got, rep, err := FactorLU(mt, b, d, gen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !overlaps.Load() {
		t.Fatal("a node's generation waited for another's to finish: gen still runs serially")
	}
	if n := calls.Load(); n != mt*mt {
		t.Errorf("gen called %d times for %d tiles", n, mt*mt)
	}
	want := matrix.NewDiagDominant(mt, b, 3)
	if err := matrix.FactorLU(want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
				t.Fatalf("tile (%d,%d) differs from sequential", i, j)
			}
		}
	}
	for rank, n := range rep.OwnedTilesPerNode {
		if lo, hi := mt*mt/P, (mt*mt+P-1)/P; n < lo || n > hi || rep.PeakTilesPerNode[rank] < n {
			t.Errorf("node %d: %d owned tiles (peak %d), want %d..%d and peak at least that",
				rank, n, rep.PeakTilesPerNode[rank], lo, hi)
		}
	}
}

func TestDistributedResiduals(t *testing.T) {
	const mt, b = 6, 8
	origLU := matrix.NewDiagDominant(mt, b, 21)
	factLU, _, err := FactorLU(mt, b, dist.NewG2DBC(5), GenDiagDominant(mt, b, 21), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := matrix.ResidualLU(origLU, factLU); res > 1e-11 {
		t.Errorf("LU residual %g", res)
	}
	origCh := matrix.NewSPD(mt, b, 22)
	factCh, _, err := FactorCholesky(mt, b, dist.NewSBCPair(4), GenSPD(mt, b, 22), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := matrix.ResidualCholesky(origCh, factCh); res > 1e-11 {
		t.Errorf("Cholesky residual %g", res)
	}
}

// TestCommVolumeMatchesStructuralCount verifies that the engine sends exactly
// the messages the owner-computes analysis predicts: the measured message
// count equals dag.CommVolumeTiles for every distribution.
func TestCommVolumeMatchesStructuralCount(t *testing.T) {
	const mt, b = 10, 4
	gLU := dag.NewLU(mt)
	for _, d := range luDistributions() {
		_, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := dag.CommVolumeTiles(gLU, d.Owner)
		if got := rep.Stats.TotalMessages(); got != want {
			t.Errorf("LU %s: %d messages, structural count %d", d.Name(), got, want)
		}
	}
	gCh := dag.NewCholesky(mt)
	for _, d := range cholDistributions(t) {
		_, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := dag.CommVolumeTiles(gCh, d.Owner)
		if got := rep.Stats.TotalMessages(); got != want {
			t.Errorf("Cholesky %s: %d messages, structural count %d", d.Name(), got, want)
		}
	}
}

// TestCommVolumeMatchesPaperFormula compares measured communication volumes
// against Equations (1) and (2). The formulas ignore the shrinking of the
// trailing matrix over the last pattern-width iterations, so they
// overestimate slightly; the measured volume must lie within [70%, 100%] of
// the prediction for mt well above the pattern size.
func TestCommVolumeMatchesPaperFormula(t *testing.T) {
	const mt, b = 30, 2
	// LU with 2DBC 2x3 (P=6) and G-2DBC(5).
	for _, d := range []dist.Distribution{dist.NewTwoDBC(2, 3), dist.NewG2DBC(5)} {
		pd := d.(dist.PatternDistribution)
		_, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 3), Options{})
		if err != nil {
			t.Fatal(err)
		}
		pred := pd.Pattern().CommVolumeLU(mt)
		got := float64(rep.Stats.TotalMessages())
		if got > pred+1e-9 || got < 0.70*pred {
			t.Errorf("LU %s: measured %v, Eq.(1) predicts %v", d.Name(), got, pred)
		}
	}
	// Cholesky with SBC (P=6): Eq. (2).
	d := dist.NewSBCPair(4)
	_, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred := d.Pattern().CommVolumeCholesky(mt)
	got := float64(rep.Stats.TotalMessages())
	if got > pred+1e-9 || got < 0.70*pred {
		t.Errorf("Cholesky %s: measured %v, Eq.(2) predicts %v", d.Name(), got, pred)
	}
}

// TestLoadBalance: with a balanced pattern and mt a multiple of the pattern
// dims, per-node flops must be within a reasonable factor of the mean.
func TestLoadBalance(t *testing.T) {
	const mt, b = 24, 2
	d := dist.NewG2DBC(6) // 2x3 pattern (c=0 degenerate case)
	rec := &trace.Recorder{}
	if _, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 6), Options{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	flops := flopsPerNode(rec, dag.NewLU(mt), b, d.Nodes())
	mean := 0.0
	for _, f := range flops {
		mean += f
	}
	mean /= float64(len(flops))
	for n, f := range flops {
		if f < 0.8*mean || f > 1.2*mean {
			t.Errorf("node %d flops %v too far from mean %v", n, f, mean)
		}
	}
}

func TestKernelErrorPropagates(t *testing.T) {
	// An indefinite matrix makes POTRF fail on some node; the error must
	// surface from FactorCholesky. Use an identity-minus-large matrix.
	gen := func(i, j int) *tile.Tile {
		t := tile.New(4, 4)
		for k := 0; i == j && k < 4; k++ {
			t.Set(k, k, -1)
		}
		return t
	}
	_, _, err := FactorCholesky(3, 4, dist.NewTwoDBC(2, 2), gen, Options{})
	if err == nil {
		t.Fatal("expected POTRF failure to propagate")
	}
}

func TestSingleTileMatrix(t *testing.T) {
	got, rep, err := FactorLU(1, 5, dist.NewTwoDBC(2, 2), GenDiagDominant(1, 5, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewDiagDominant(1, 5, 8)
	if err := matrix.FactorLU(want); err != nil {
		t.Fatal(err)
	}
	if !got.Tile(0, 0).EqualApprox(want.Tile(0, 0), 0) {
		t.Fatal("single-tile result differs")
	}
	if rep.Stats.TotalMessages() != 0 {
		t.Fatal("single-tile factorization communicated")
	}
}

// TestManyRandomCholeskyConfigs fuzzes the symmetric kernel across
// (mt, b, distribution, workers) combinations.
func TestManyRandomCholeskyConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		mt := 2 + rng.Intn(6)
		b := 2 + rng.Intn(5)
		workers := 1 + rng.Intn(3)
		seed := rng.Int63()

		// Cholesky under a random symmetric-capable distribution.
		var d dist.Distribution
		switch trial % 3 {
		case 0:
			d = dist.NewSBCPair(3 + rng.Intn(4))
		case 1:
			d = dist.NewG2DBC(1 + rng.Intn(10))
		default:
			d = dist.NewSTS(9)
		}
		orig := matrix.NewSPD(mt, b, seed)
		fact, _, err := FactorCholesky(mt, b, d, GenSPD(mt, b, seed), Options{Workers: workers})
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, d.Name(), err)
		}
		if res := matrix.ResidualCholesky(orig, fact); res > 1e-10 {
			t.Fatalf("trial %d %s: residual %g", trial, d.Name(), res)
		}
	}
}

// TestManyRandomConfigs fuzzes (mt, b, distribution, workers) combinations.
func TestManyRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		mt := 2 + rng.Intn(7)
		b := 2 + rng.Intn(6)
		P := 1 + rng.Intn(12)
		d := dist.NewG2DBC(P)
		workers := 1 + rng.Intn(4)
		seed := rng.Int63()
		orig := matrix.NewDiagDominant(mt, b, seed)
		fact, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, seed), Options{Workers: workers})
		if err != nil {
			t.Fatalf("trial %d (mt=%d b=%d P=%d w=%d): %v", trial, mt, b, P, workers, err)
		}
		if res := matrix.ResidualLU(orig, fact); res > 1e-10 {
			t.Fatalf("trial %d: residual %g", trial, res)
		}
	}
}
