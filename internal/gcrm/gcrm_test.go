package gcrm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"anybc/internal/lowerbound"
	"anybc/internal/pattern"
)

func TestFeasible(t *testing.T) {
	cases := []struct {
		p, r int
		want bool
	}{
		// For P=23: r(r-1) must satisfy ⌈r(r-1)/23⌉ ≤ r²/23.
		{23, 23, true}, // 22·23/23 = 22 ≤ 23
		{23, 22, true}, // ⌈462/23⌉ = ⌈20.08⌉ = 21 ≤ 21.04
		{23, 2, false}, // ⌈2/23⌉ = 1 > 4/23
		{1, 2, true},
		{0, 5, false},
		{5, 0, false},
		{3, 2, false}, // r(r-1) = 2 < P: node 2 could never appear
	}
	for _, c := range cases {
		if got := Feasible(c.p, c.r); got != c.want {
			t.Errorf("Feasible(%d,%d) = %v, want %v", c.p, c.r, got, c.want)
		}
	}
	// Perfect-square-family sanity: for P = r(r-1)/2 the size r is feasible.
	for r := 3; r <= 12; r++ {
		if !Feasible(r*(r-1)/2, r) {
			t.Errorf("Feasible(%d, %d) = false for SBC pair size", r*(r-1)/2, r)
		}
	}
}

// TestBuildValidity checks structural invariants of built patterns over many
// (P, r) combinations: square, diagonal undefined, off-diagonal defined,
// all P nodes present, near-perfect balance.
func TestBuildValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, P := range []int{1, 2, 3, 5, 8, 13, 21, 23, 31, 35, 39} {
		for _, r := range FeasibleSizes(P, 3) {
			pat, err := Build(P, r, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				t.Fatalf("Build(%d,%d): %v", P, r, err)
			}
			if pat.Rows() != r || pat.Cols() != r {
				t.Fatalf("Build(%d,%d): dims %s", P, r, pat.Dims())
			}
			if pat.NumNodes() != P {
				t.Fatalf("Build(%d,%d): %d nodes in pattern", P, r, pat.NumNodes())
			}
			for i := 0; i < r; i++ {
				if pat.At(i, i) != pattern.Undefined {
					t.Fatalf("Build(%d,%d): diagonal cell (%d,%d) defined", P, r, i, i)
				}
				for j := 0; j < r; j++ {
					if i != j && pat.At(i, j) == pattern.Undefined {
						t.Fatalf("Build(%d,%d): off-diagonal cell (%d,%d) undefined", P, r, i, j)
					}
				}
			}
			// Balance: every node owns ⌊r(r-1)/P⌋ or ⌈r(r-1)/P⌉ cells.
			lo := r * (r - 1) / P
			hi := (r*(r-1) + P - 1) / P
			for n, cnt := range pat.Counts() {
				if cnt < lo || cnt > hi {
					t.Errorf("Build(%d,%d): node %d owns %d cells, want %d or %d",
						P, r, n, cnt, lo, hi)
				}
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(23, 22, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(23, 22, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different patterns")
	}
}

func TestBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Build(0, 5, rng); err == nil {
		t.Error("Build(0,5): want error")
	}
	if _, err := Build(5, 1, rng); err == nil {
		t.Error("Build(5,1): want error")
	}
	if _, err := Build(23, 2, rng); err == nil {
		t.Error("Build(23,2): infeasible size accepted")
	}
}

// TestSearchBeatsOrMatchesSBC verifies the paper's headline claim for the
// symmetric case: GCR&M patterns on all P nodes achieve costs comparable to
// or better than the SBC cost laws, and always well below 2DBC.
func TestSearchBeatsOrMatchesSBC(t *testing.T) {
	opts := SearchOptions{Seeds: 30, SizeFactor: 4, BaseSeed: 1, Parallel: true}
	for _, P := range []int{21, 23, 28, 31, 35} {
		res, err := Search(P, opts)
		if err != nil {
			t.Fatalf("Search(%d): %v", P, err)
		}
		sbcLaw := math.Sqrt(2 * float64(P))
		if res.Cost > sbcLaw+0.6 {
			t.Errorf("P=%d: GCR&M cost %.3f too far above SBC law %.3f", P, res.Cost, sbcLaw)
		}
		if limit := lowerbound.GCRMEmpiricalLaw(P); res.Cost < limit-0.5 {
			t.Errorf("P=%d: GCR&M cost %.3f below the empirical limit %.3f — metric bug?",
				P, res.Cost, limit)
		}
	}
}

// TestSearchTableIb checks the legible GCR&M entries of the paper's Table Ib
// within a tolerance reflecting random search: P=23 → 6.045, P=31 → 7.065,
// and the text's "7.4" for P=35.
func TestSearchTableIb(t *testing.T) {
	if testing.Short() {
		t.Skip("search is expensive")
	}
	opts := DefaultSearchOptions()
	opts.Seeds = 60
	cases := []struct {
		p    int
		cost float64
	}{
		{23, 6.045},
		{31, 7.065},
		{35, 7.4},
	}
	for _, c := range cases {
		res, err := Search(c.p, opts)
		if err != nil {
			t.Fatalf("Search(%d): %v", c.p, err)
		}
		if math.Abs(res.Cost-c.cost) > 0.25 {
			t.Errorf("P=%d: GCR&M cost %.3f, paper reports %.3f", c.p, res.Cost, c.cost)
		}
	}
}

func TestSampleReturnsCandidates(t *testing.T) {
	opts := SearchOptions{Seeds: 5, SizeFactor: 3, BaseSeed: 9}
	res, all, err := Sample(23, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no candidates returned")
	}
	for _, c := range all {
		if c.Cost < res.Cost-1e-12 {
			t.Fatalf("candidate (r=%d seed=%d cost=%.3f) beats reported best %.3f",
				c.R, c.Seed, c.Cost, res.Cost)
		}
	}
}

func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	seq := SearchOptions{Seeds: 10, SizeFactor: 3, BaseSeed: 4, Parallel: false}
	par := seq
	par.Parallel = true
	a, err := Search(23, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(23, par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.R != b.R || a.Seed != b.Seed {
		t.Fatalf("parallel search diverged: (%v,%d,%d) vs (%v,%d,%d)",
			a.Cost, a.R, a.Seed, b.Cost, b.R, b.Seed)
	}
	if !reflect.DeepEqual(a.Pattern, b.Pattern) {
		t.Fatal("parallel search produced a different pattern")
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(0, DefaultSearchOptions()); err == nil {
		t.Error("Search(0): want error")
	}
	if _, err := Search(50, SearchOptions{Seeds: 1, SizeFactor: 0.1}); err == nil {
		t.Error("Search with tiny factor: want error")
	}
}

func TestFeasibleSizes(t *testing.T) {
	sizes := FeasibleSizes(23, 6)
	if len(sizes) == 0 {
		t.Fatal("no feasible sizes for P=23")
	}
	max := int(6 * math.Sqrt(23))
	for _, r := range sizes {
		if !Feasible(23, r) || r > max {
			t.Errorf("size %d invalid", r)
		}
	}
}

// TestEmpiricalLowerLimit: the limit GCR&M costs are held to above is
// √(3P/2), the value the paper observes for regular patterns.
func TestEmpiricalLowerLimit(t *testing.T) {
	if got := lowerbound.GCRMEmpiricalLaw(6); math.Abs(got-3) > 1e-12 {
		t.Errorf("GCRMEmpiricalLaw(6) = %v, want 3", got)
	}
}

// TestPhase1ReturnsAssignmentWithoutError: the greedy cover phase now plumbs
// an error instead of panicking; on feasible inputs it must succeed and cover
// every off-diagonal cell.
func TestPhase1ReturnsAssignmentWithoutError(t *testing.T) {
	for _, c := range []struct{ p, r int }{{23, 22}, {5, 4}, {1, 2}, {31, 9}} {
		a, err := phase1(c.p, c.r, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("phase1(%d,%d): %v", c.p, c.r, err)
		}
		for i := 0; i < c.r; i++ {
			for j := 0; j < c.r; j++ {
				if i == j {
					continue
				}
				coveredBySome := false
				for p := 0; p < c.p && !coveredBySome; p++ {
					coveredBySome = a.sets[p][i] && a.sets[p][j]
				}
				if !coveredBySome {
					t.Fatalf("phase1(%d,%d): cell (%d,%d) uncovered", c.p, c.r, i, j)
				}
			}
		}
	}
}

// TestBestColrowDetectsStall: the stall condition phase1 reports as an error
// — the least-loaded node already holding every colrow — must be detected as
// -1 rather than picking a bogus colrow (the old code panicked here).
func TestBestColrowDetectsStall(t *testing.T) {
	const r = 4
	a := &assignment{sets: []map[int]bool{{}}, usage: make([]int, r)}
	for q := 0; q < r; q++ {
		a.add(0, q)
	}
	covered := make([]bool, r*r)
	newCells := make([]int, r)
	if got := bestColrow(a, covered, newCells, 0, r); got != -1 {
		t.Fatalf("bestColrow on a saturated node = %d, want -1", got)
	}
	// Sanity: with one colrow missing it must pick exactly that one.
	b := &assignment{sets: []map[int]bool{{}}, usage: make([]int, r)}
	for q := 0; q < r-1; q++ {
		b.add(0, q)
	}
	if got := bestColrow(b, covered, newCells, 0, r); got != r-1 {
		t.Fatalf("bestColrow with colrow %d missing = %d", r-1, got)
	}
}
