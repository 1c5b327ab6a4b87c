package pattern

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestDistinctCountsSimple(t *testing.T) {
	// 2x3 2DBC pattern: every row has 3 distinct nodes, every column 2.
	p := MustFromRows([][]int{{0, 1, 2}, {3, 4, 5}})
	for i := 0; i < 2; i++ {
		if got := p.RowDistincts()[i]; got != 3 {
			t.Errorf("RowDistinct(%d) = %d, want 3", i, got)
		}
	}
	for j := 0; j < 3; j++ {
		if got := p.ColDistincts()[j]; got != 2 {
			t.Errorf("ColDistinct(%d) = %d, want 2", j, got)
		}
	}
	if !almostEqual(p.AvgRowDistinct(), 3) || !almostEqual(p.AvgColDistinct(), 2) {
		t.Errorf("averages = (%v, %v), want (3, 2)", p.AvgRowDistinct(), p.AvgColDistinct())
	}
	if !almostEqual(p.CostLU(), 5) {
		t.Errorf("CostLU = %v, want 5", p.CostLU())
	}
	// Non-square symmetric cost is x̄+ȳ-1.
	if !almostEqual(p.CostCholesky(), 4) {
		t.Errorf("CostCholesky (rect) = %v, want 4", p.CostCholesky())
	}
}

func TestDistinctWithRepeats(t *testing.T) {
	p := MustFromRows([][]int{{0, 0, 1}, {1, 2, 2}})
	if got := p.RowDistincts()[0]; got != 2 {
		t.Errorf("RowDistinct(0) = %d, want 2", got)
	}
	if got := p.ColDistincts()[0]; got != 2 {
		t.Errorf("ColDistinct(0) = %d, want 2", got)
	}
	if got := p.ColDistincts()[1]; got != 2 {
		t.Errorf("ColDistinct(1) = %d, want 2", got)
	}
}

func TestColrowDistinct(t *testing.T) {
	// 2x2 2DBC: colrow 0 = row 0 ∪ col 0 = {0,1} ∪ {0,2} = 3 nodes.
	p := MustFromRows([][]int{{0, 1}, {2, 3}})
	if got := p.ColrowDistincts()[0]; got != 3 {
		t.Errorf("ColrowDistinct(0) = %d, want 3", got)
	}
	if got := p.ColrowDistincts()[1]; got != 3 {
		t.Errorf("ColrowDistinct(1) = %d, want 3", got)
	}
	if !almostEqual(p.AvgColrowDistinct(), 3) {
		t.Errorf("z̄ = %v, want 3", p.AvgColrowDistinct())
	}
	// Square pattern: CostCholesky = z̄ = CostLU - 1 for all-distinct patterns.
	if !almostEqual(p.CostCholesky(), p.CostLU()-1) {
		t.Errorf("CostCholesky = %v, CostLU = %v", p.CostCholesky(), p.CostLU())
	}
}

func TestColrowIgnoresUndefinedDiagonal(t *testing.T) {
	// An undefined diagonal cell must not contribute a node: the dynamic
	// assignment always picks a node already on the colrow. This is the
	// SBC pattern for r=3, P=3 (pairs {0,1}→0, {0,2}→1, {1,2}→2).
	p := MustFromRows([][]int{{9, 0, 1}, {0, 9, 2}, {1, 2, 9}})
	for d := 0; d < 3; d++ {
		p.Set(d, d, Undefined)
	}
	for i := 0; i < 3; i++ {
		if got := p.ColrowDistincts()[i]; got != 2 {
			t.Errorf("ColrowDistinct(%d) = %d, want 2", i, got)
		}
	}
	if !almostEqual(p.CostCholesky(), 2) {
		t.Errorf("CostCholesky = %v, want 2", p.CostCholesky())
	}
}

func TestColrowPanicsOnRect(t *testing.T) {
	p := MustFromRows([][]int{{0, 1, 2}, {3, 4, 5}})
	defer func() {
		if recover() == nil {
			t.Error("ColrowDistincts on rectangular pattern did not panic")
		}
	}()
	p.ColrowDistincts()
}

// distinct counts the distinct defined nodes among cells.
func distinct(cells ...int) int {
	seen := map[int]bool{}
	for _, v := range cells {
		if v != Undefined {
			seen[v] = true
		}
	}
	return len(seen)
}

func TestBatchedDistinctsMatchSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		P := 1 + rng.Intn(10)
		p := New(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				p.Set(i, j, rng.Intn(P))
			}
		}
		rows, cols := p.RowDistincts(), p.ColDistincts()
		for i := 0; i < r; i++ {
			var row []int
			for j := 0; j < c; j++ {
				row = append(row, p.At(i, j))
			}
			if want := distinct(row...); rows[i] != want {
				t.Fatalf("RowDistincts[%d] = %d, want %d", i, rows[i], want)
			}
		}
		for j := 0; j < c; j++ {
			var col []int
			for i := 0; i < r; i++ {
				col = append(col, p.At(i, j))
			}
			if want := distinct(col...); cols[j] != want {
				t.Fatalf("ColDistincts[%d] = %d, want %d", j, cols[j], want)
			}
		}
		if r == c {
			zs := p.ColrowDistincts()
			for i := 0; i < r; i++ {
				var colrow []int
				for k := 0; k < r; k++ {
					colrow = append(colrow, p.At(i, k), p.At(k, i))
				}
				if want := distinct(colrow...); zs[i] != want {
					t.Fatalf("ColrowDistincts[%d] = %d, want %d", i, zs[i], want)
				}
			}
		}
	}
}

// TestCostBoundsProperty checks 1 ≤ x_i ≤ min(P, c) and the LU cost bounds
// 2 ≤ T ≤ r + c on random fully defined patterns.
func TestCostBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		P := 1 + rng.Intn(12)
		p := New(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				p.Set(i, j, rng.Intn(P))
			}
		}
		T := p.CostLU()
		if T < 2-1e-12 || T > float64(r+c)+1e-12 {
			return false
		}
		for i, x := range p.RowDistincts() {
			if x < 1 || x > c || x > P {
				t.Logf("row %d distinct=%d out of range", i, x)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCommVolumeFormulas(t *testing.T) {
	p := MustFromRows([][]int{{0, 1, 2}, {3, 4, 5}})
	// m(m+1)/2 (x̄+ȳ-2) with x̄=3, ȳ=2, m=12: 78*3 = 234.
	if got := p.CommVolumeLU(12); !almostEqual(got, 234) {
		t.Errorf("CommVolumeLU = %v, want 234", got)
	}
	sq := MustFromRows([][]int{{0, 1}, {2, 3}})
	// z̄=3, m=4: 10*(3-1) = 20.
	if got := sq.CommVolumeCholesky(4); !almostEqual(got, 20) {
		t.Errorf("CommVolumeCholesky = %v, want 20", got)
	}
}

func TestDims(t *testing.T) {
	p := MustFromRows([][]int{{0, 1, 2}, {3, 4, 5}})
	if got := p.Dims(); got != "2x3" {
		t.Errorf("Dims = %q, want 2x3", got)
	}
}
