package lowerbound_test

import (
	"fmt"
	"math"
	"testing"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/lowerbound"
)

// point is one distribution at one tile count, with the exact tile transfers
// the owner-computes rule induces under it. chol is -1 where only LU runs.
type point struct {
	name     string
	P, c, mt int
	lu, chol int64
}

// perNode is a per-node bound on words for an m×m matrix on P nodes holding
// c replicas each.
type perNode func(m float64, P, c int) float64

// b is the tile size the volumes are read at, in words: a tile transfer moves
// b² words. Every term of both bounds scales as b² but the m/(2P) of
// Cholesky's held share, so the paper's tile checks more strictly than b = 1.
const b = 500

// violations returns one line per point whose mean per-node received words
// fall below a bound.
func violations(pts []point, lu, chol perNode) []string {
	var out []string
	check := func(p point, kernel string, tiles int64, bound perNode) {
		m := float64(p.mt * b)
		got := float64(tiles) * b * b / float64(p.P)
		if want := bound(m, p.P, p.c); got < want {
			out = append(out, fmt.Sprintf("%s mt=%d %s: %.4g words/node, bound %.4g (ratio %.3f)",
				p.name, p.mt, kernel, got, want, got/want))
		}
	}
	for _, p := range pts {
		check(p, "LU", p.lu, lu)
		if p.chol >= 0 {
			check(p, "Cholesky", p.chol, chol)
		}
	}
	return out
}

// schemes returns every scheme the module builds for P = 2…64: the best
// 2DBC, G-2DBC, SBC and STS where they accept P, and the embedded GCR&M.
func schemes(t *testing.T) []dist.Distribution {
	var ds []dist.Distribution
	for P := 2; P <= 64; P++ {
		ds = append(ds, dist.Best2DBC(P), dist.NewG2DBC(P))
		if d, err := dist.NewSBC(P); err == nil {
			ds = append(ds, d)
		}
		if d, err := dist.NewSTSForP(P); err == nil {
			ds = append(ds, d)
		}
		d, err := core.New(core.GCRM, P, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	return ds
}

// TestSchemesNeverBeatTheBounds holds every scheme at every P = 2…64, and
// replicated G-2DBC at c = 2, to the per-node bounds and the pattern-cost
// bounds; then runs the same check against the pre-theorem forms m²/√(cP)
// and m²/√(2cP), which schemes do beat, to show that it can fail.
func TestSchemesNeverBeatTheBounds(t *testing.T) {
	ds := schemes(t)
	if len(ds) != 205 {
		t.Fatalf("%d (scheme, P) points, want 205", len(ds))
	}
	var pts []point
	for _, d := range ds {
		P := float64(d.Nodes())
		// 2√P binds patterns that own every cell; a symmetric scheme leaves
		// its diagonal to a resolver.
		if pat, ok := dist.PatternOf(d); ok && pat.UndefinedCells() == 0 && pat.CostLU() < lowerbound.PatternCostLU(d.Nodes())-1e-9 {
			t.Errorf("%s: T_LU %.4f below 2√P = %.4f", d.Name(), pat.CostLU(), lowerbound.PatternCostLU(d.Nodes()))
		}
		if T, ok := dist.TryCostCholesky(d); ok && T < math.Sqrt(P)-1e-9 {
			t.Errorf("%s: T_Cholesky %.4f below √P = %.4f", d.Name(), T, math.Sqrt(P))
		}
		for _, mt := range []int{24, 48} {
			pts = append(pts, point{d.Name(), d.Nodes(), 1, mt,
				dag.CommVolumeTiles(dag.NewLU(mt), d.Owner), dag.CommVolumeTiles(dag.NewCholesky(mt), d.Owner)})
		}
	}
	for P := 2; P <= 32; P++ {
		for _, mt := range []int{24, 48} {
			d := dist.NewReplicated(dist.NewG2DBC(P), 2, mt)
			pts = append(pts, point{d.Name(), d.Nodes(), 2, mt,
				dag.CommVolumeTiles(dag.NewReplicatedLU(mt, 2), d.Owner), -1})
		}
	}

	for _, v := range violations(pts, lowerbound.LUPerNodeRepl, lowerbound.CholeskyPerNodeRepl) {
		t.Error(v)
	}

	planted := violations(pts,
		func(m float64, P, c int) float64 { return m * m / math.Sqrt(float64(c*P)) },
		func(m float64, P, c int) float64 { return m * m / math.Sqrt(float64(2*c*P)) })
	if len(planted) == 0 {
		t.Error("no point beats the planted bounds m²/√(cP) and m²/√(2cP): the check cannot fail")
	}
	t.Logf("%d points hold every bound; the planted bounds are beaten %d times", len(pts), len(planted))
}

// TestPatternCostOrdering: square 2DBC attains the LU pattern bound 2√P, and
// no balanced pattern can beat it.
func TestPatternCostOrdering(t *testing.T) {
	for k := 1; k <= 8; k++ {
		P := k * k
		if got, want := dist.Best2DBC(P).Pattern().CostLU(), lowerbound.PatternCostLU(P); got != want {
			t.Errorf("%d×%d 2DBC: T = %v, want the bound %v", k, k, got, want)
		}
	}
	for P := 2; P <= 1000; P++ {
		if T := dist.Best2DBC(P).Pattern().CostLU(); T < lowerbound.PatternCostLU(P) {
			t.Fatalf("P=%d: best 2DBC T = %v below 2√P = %v", P, T, lowerbound.PatternCostLU(P))
		}
	}
}
