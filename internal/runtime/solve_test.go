package runtime

import (
	"testing"

	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
)

func TestDistributedSolveLU(t *testing.T) {
	const mt, b, nrhs = 8, 6, 3
	const seed = 14
	// Build a system with known solution: B = A·xTrue.
	a := matrix.NewDiagDominant(mt, b, seed)
	xTrue := matrix.NewRHS(mt, b, nrhs)
	xTrue.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(seed+1, gi, k) })
	rhs := a.MulRHS(xTrue)

	for _, d := range []dist.Distribution{
		dist.NewTwoDBC(1, 1),
		dist.NewTwoDBC(2, 3),
		dist.NewG2DBC(7),
	} {
		for _, workers := range []int{1, 3} {
			x, rep, err := SolveLU(mt, b, nrhs, d, GenDiagDominant(mt, b, seed),
				func(i int) *tile.Tile { return rhs[i].Clone() }, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			if diff := x.MaxAbsDiff(xTrue); diff > 1e-9 {
				t.Errorf("%s workers=%d: solution error %g", d.Name(), workers, diff)
			}
			if rep.Stats.TotalMessages() < 0 {
				t.Error("negative message count")
			}
		}
	}
}

func TestDistributedSolveCholesky(t *testing.T) {
	const mt, b, nrhs = 8, 6, 2
	const seed = 15
	a := matrix.NewSPD(mt, b, seed)
	xTrue := matrix.NewRHS(mt, b, nrhs)
	xTrue.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(seed+1, gi, k) })
	rhs := a.MulRHS(xTrue)

	for _, d := range []dist.Distribution{
		dist.NewTwoDBC(2, 2),
		dist.NewSBCPair(4),
		dist.NewSBCEven(4),
	} {
		x, _, err := SolveCholesky(mt, b, nrhs, d, GenSPD(mt, b, seed),
			func(i int) *tile.Tile { return rhs[i].Clone() }, Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if diff := x.MaxAbsDiff(xTrue); diff > 1e-9 {
			t.Errorf("%s: solution error %g", d.Name(), diff)
		}
	}
}

func TestSolveMatchesSequential(t *testing.T) {
	const mt, b, nrhs = 6, 5, 2
	const seed = 16
	// Sequential: factor + solve with the matrix package.
	ref := matrix.NewDiagDominant(mt, b, seed)
	if err := matrix.FactorLU(ref); err != nil {
		t.Fatal(err)
	}
	rhs := matrix.NewRHS(mt, b, nrhs)
	rhs.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(seed+2, gi, k) })

	x, _, err := SolveLU(mt, b, nrhs, dist.NewG2DBC(5), GenDiagDominant(mt, b, seed),
		func(i int) *tile.Tile { return rhs[i].Clone() }, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	matrix.SolveLU(ref, rhs) // in place, now that the run has its copies
	// The backward chain accumulates in the opposite j order from the
	// sequential loop, so allow rounding-level differences only.
	if diff := x.MaxAbsDiff(rhs); diff > 1e-13 {
		t.Errorf("distributed solve differs from sequential by %g", diff)
	}
}

func TestSolveDistName(t *testing.T) {
	sd := solveDist{Distribution: dist.NewTwoDBC(2, 2), mt: 4}
	if sd.Name() != "2DBC(2x2)+rhs" {
		t.Errorf("Name = %q", sd.Name())
	}
	if sd.Owner(1, 4) != sd.Distribution.Owner(1, 1) {
		t.Error("RHS tile not mapped to diagonal owner")
	}
	if sd.Owner(1, 2) != sd.Distribution.Owner(1, 2) {
		t.Error("matrix tile mapping changed")
	}
}
