package runtime

import (
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/gcrm"
	"anybc/internal/matrix"
	"anybc/internal/trace"
)

// TestSoakPaperNodeCounts exercises the real runtime at the paper's flagship
// configuration: all 23 virtual nodes, multi-worker, on both kernels, with
// numerical verification and communication bookkeeping cross-checks.
func TestSoakPaperNodeCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const mt, b = 40, 8

	// LU under G-2DBC(23).
	dLU := dist.NewG2DBC(23)
	origLU := matrix.NewDiagDominant(mt, b, 99)
	factLU, repLU, err := FactorLU(mt, b, dLU, GenDiagDominant(mt, b, 99), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := matrix.ResidualLU(origLU, factLU); res > 1e-10 {
		t.Errorf("LU residual %g", res)
	}
	pred := dLU.Pattern().CommVolumeLU(mt)
	if got := float64(repLU.Stats.TotalMessages()); got > pred || got < 0.8*pred {
		t.Errorf("LU messages %v outside (0.8..1]×prediction %v", got, pred)
	}

	// Cholesky under GCR&M(23).
	res23, err := gcrm.Search(23, gcrm.SearchOptions{Seeds: 20, SizeFactor: 4, BaseSeed: 3, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	dCh := dist.NewDiagResolver("GCR&M(P=23)", res23.Pattern)
	origCh := matrix.NewSPD(mt, b, 98)
	recCh := &trace.Recorder{}
	factCh, repCh, err := FactorCholesky(mt, b, dCh, GenSPD(mt, b, 98), Options{Workers: 4, Recorder: recCh})
	if err != nil {
		t.Fatal(err)
	}
	if res := matrix.ResidualCholesky(origCh, factCh); res > 1e-10 {
		t.Errorf("Cholesky residual %g", res)
	}
	// The Cholesky volume under GCR&M must stay below the best 2DBC's.
	dbc := dist.Best2DBC(23)
	_, repDBC, err := FactorCholesky(mt, b, dbc, GenSPD(mt, b, 98), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if repCh.Stats.TotalMessages() >= repDBC.Stats.TotalMessages() {
		t.Errorf("GCR&M messages %d not below 2DBC %d",
			repCh.Stats.TotalMessages(), repDBC.Stats.TotalMessages())
	}

	// Load balance under GCR&M: every node executed work, flops within 2x of
	// the mean (symmetric patterns are balanced in tiles, not exactly in
	// flops, because tile cost varies by kernel).
	flops := flopsPerNode(recCh, dag.NewCholesky(mt), b, dCh.Nodes())
	mean := 0.0
	for _, f := range flops {
		mean += f
	}
	mean /= float64(len(flops))
	for n, f := range flops {
		if f == 0 {
			t.Errorf("node %d executed nothing", n)
		}
		if f > 2*mean || f < mean/2 {
			t.Errorf("node %d flops %.0f far from mean %.0f", n, f, mean)
		}
	}
}

// TestSoakVersionedProtocolRelease drives the versioned tile protocol and the
// last-reader release path under concurrency (meant for -race): both kernels,
// block-cyclic and symmetric distributions, multiple workers per node. Beyond
// the residuals, it checks the tile-lifetime invariant: the per-node working
// set peak never exceeds the old keep-everything footprint, and across a full
// factorization the release path reclaims tiles on at least one node.
func TestSoakVersionedProtocolRelease(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const mt, b = 28, 6

	checkPeaks := func(t *testing.T, rep *Report) {
		t.Helper()
		sumPeak, sumFoot := 0, 0
		for n, peak := range rep.PeakTilesPerNode {
			foot := rep.OwnedTilesPerNode[n] + rep.ReceivedTilesPerNode[n]
			if peak > foot {
				t.Errorf("node %d peak %d above whole-run footprint %d", n, peak, foot)
			}
			sumPeak += peak
			sumFoot += foot
		}
		if sumPeak >= sumFoot {
			t.Errorf("release path reclaimed nothing: peak %d vs footprint %d", sumPeak, sumFoot)
		}
	}

	t.Run("LU", func(t *testing.T) {
		for _, d := range []dist.Distribution{dist.NewG2DBC(13), dist.NewSBCPair(6)} {
			orig := matrix.NewDiagDominant(mt, b, 77)
			fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 77), Options{Workers: 4})
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			if res := matrix.ResidualLU(orig, fact); res > 1e-10 {
				t.Errorf("%s: residual %g", d.Name(), res)
			}
			checkPeaks(t, rep)
		}
	})

	t.Run("Cholesky", func(t *testing.T) {
		for _, d := range []dist.Distribution{dist.NewG2DBC(13), dist.NewSBCEven(6)} {
			orig := matrix.NewSPD(mt, b, 76)
			fact, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 76), Options{Workers: 4})
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			if res := matrix.ResidualCholesky(orig, fact); res > 1e-10 {
				t.Errorf("%s: residual %g", d.Name(), res)
			}
			checkPeaks(t, rep)
		}
	})
}
