package dist

import (
	"math"
	"reflect"
	"testing"
)

// TestG2DBCPaperExample reproduces the Figure 3 example: P = 10 gives
// a = 4, b = 3, c = 2 and a 6x10 pattern.
func TestG2DBCPaperExample(t *testing.T) {
	d := NewG2DBC(10)
	a, b, c := G2DBCParams(10)
	if a != 4 || b != 3 || c != 2 {
		t.Fatalf("Params = (%d,%d,%d), want (4,3,2)", a, b, c)
	}
	p := d.Pattern()
	if p.Rows() != b*(b-1) || p.Cols() != 10 {
		t.Fatalf("pattern dims %s, want 6x10", p.Dims())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("pattern invalid: %v", err)
	}
	// Figure 3 (0-based): IP rows are [0 1 2 3], [4 5 6 7], [8 9 . .].
	// P_1 fills the holes with 2 and 3; strip 1 = [P_1 P_1 LP(cols 0,1)].
	wantRow0 := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	wantRow2 := []int{8, 9, 2, 3, 8, 9, 2, 3, 8, 9}
	wantRow5 := []int{8, 9, 6, 7, 8, 9, 6, 7, 8, 9} // strip 2 uses row 1's tail 6,7
	for j, want := range wantRow0 {
		if got := p.At(0, j); got != want {
			t.Errorf("pattern(0,%d) = %d, want %d", j, got, want)
		}
	}
	for j, want := range wantRow2 {
		if got := p.At(2, j); got != want {
			t.Errorf("pattern(2,%d) = %d, want %d", j, got, want)
		}
	}
	for j, want := range wantRow5 {
		if got := p.At(5, j); got != want {
			t.Errorf("pattern(5,%d) = %d, want %d", j, got, want)
		}
	}
}

// TestG2DBCLemma1 checks that each node appears exactly b(b-1) times
// (perfect balance) for a wide range of P.
func TestG2DBCLemma1(t *testing.T) {
	for P := 1; P <= 300; P++ {
		d := NewG2DBC(P)
		_, b, c := G2DBCParams(P)
		p := d.Pattern()
		if err := p.Validate(); err != nil {
			t.Fatalf("P=%d: invalid pattern: %v", P, err)
		}
		if p.NumNodes() != P {
			t.Fatalf("P=%d: pattern has %d nodes", P, p.NumNodes())
		}
		if p.BalanceSpread() != 0 {
			t.Fatalf("P=%d: pattern not balanced (spread %d)", P, p.BalanceSpread())
		}
		want := b * (b - 1)
		if c == 0 {
			want = 1 // degenerate 2DBC pattern
		}
		for n, cnt := range p.Counts() {
			if cnt != want {
				t.Fatalf("P=%d: node %d appears %d times, want %d", P, n, cnt, want)
			}
		}
	}
}

// TestG2DBCRowColCounts checks x̄ = a and the closed form for ȳ
// from the proof of Lemma 2: ȳ = (b²(a-c) + (b-1)²c) / P.
func TestG2DBCRowColCounts(t *testing.T) {
	for P := 1; P <= 300; P++ {
		d := NewG2DBC(P)
		a, b, c := G2DBCParams(P)
		p := d.Pattern()
		for i, x := range p.RowDistincts() {
			if x != a {
				t.Fatalf("P=%d: row %d has %d distinct nodes, want a=%d", P, i, x, a)
			}
		}
		var wantY float64
		if c == 0 {
			wantY = float64(b)
		} else {
			wantY = float64(b*b*(a-c)+(b-1)*(b-1)*c) / float64(P)
		}
		if got := p.AvgColDistinct(); math.Abs(got-wantY) > 1e-9 {
			t.Fatalf("P=%d: ȳ = %v, want %v", P, got, wantY)
		}
	}
}

// TestG2DBCLemma2 checks the cost bound T ≤ 2√P + 2/√P.
func TestG2DBCLemma2(t *testing.T) {
	max := 400
	if testing.Short() {
		max = 100
	}
	for P := 1; P <= max; P++ {
		d := NewG2DBC(P)
		if T, bound := d.Pattern().CostLU(), CostBound(P); T > bound+1e-9 {
			t.Fatalf("P=%d: T = %v exceeds bound %v", P, T, bound)
		}
	}
}

// TestG2DBCReducesTo2DBC checks the degenerate case c = 0 (P = p² or
// P = p(p+1)): G-2DBC is the standard 2DBC pattern.
func TestG2DBCReducesTo2DBC(t *testing.T) {
	for _, P := range []int{1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49} {
		d := NewG2DBC(P)
		a, b, c := G2DBCParams(P)
		if c != 0 {
			t.Fatalf("P=%d: expected c=0, got c=%d", P, c)
		}
		want := NewTwoDBC(b, a)
		if !reflect.DeepEqual(d.Pattern(), want.Pattern()) {
			t.Errorf("P=%d: G-2DBC pattern differs from 2DBC %dx%d", P, b, a)
		}
	}
}

// TestG2DBCTableIa checks the G-2DBC column of Table Ia. The P=23 entry is
// the value computed by the paper's own closed form (9.652); the printed
// 9.261 is treated as an erratum (see DESIGN.md).
func TestG2DBCTableIa(t *testing.T) {
	cases := []struct {
		p    int
		dims string
		cost float64
	}{
		{23, "20x23", 9.6522},
		{31, "30x31", 11.1935},
		{35, "30x35", 11.8571},
		{39, "30x39", 12.6154},
	}
	for _, c := range cases {
		d := NewG2DBC(c.p)
		if got := d.Pattern().Dims(); got != c.dims {
			t.Errorf("P=%d: dims %s, want %s", c.p, got, c.dims)
		}
		if got := d.Pattern().CostLU(); math.Abs(got-c.cost) > 5e-4 {
			t.Errorf("P=%d: cost %v, want %v", c.p, got, c.cost)
		}
	}
}

func TestG2DBCOwnerMatchesPattern(t *testing.T) {
	d := NewG2DBC(7)
	p := d.Pattern()
	for i := 0; i < 3*p.Rows(); i++ {
		for j := 0; j < 2*p.Cols(); j++ {
			if d.Owner(i, j) != p.Owner(i, j) {
				t.Fatalf("Owner mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestG2DBCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewG2DBC(0) did not panic")
		}
	}()
	NewG2DBC(0)
}
