package dist

import (
	"math"
	"testing"

	"anybc/internal/pattern"
)

func TestSTSValidP(t *testing.T) {
	cases := []struct {
		p  int
		r  int
		ok bool
	}{
		{1, 3, true},
		{12, 9, true},
		{35, 15, true},
		{70, 21, true},
		{117, 27, true},
		{23, 0, false},
		{36, 0, false},
		{2, 0, false},
	}
	for _, c := range cases {
		r, ok := STSValidP(c.p)
		if ok != c.ok || (ok && r != c.r) {
			t.Errorf("STSValidP(%d) = (%d,%v), want (%d,%v)", c.p, r, ok, c.r, c.ok)
		}
	}
}

// TestSTSIsSteinerSystem verifies the defining property: every off-diagonal
// cell is assigned (every pair covered exactly once — double coverage would
// panic in the constructor), every node owns exactly 6 cells, and every node
// appears on exactly 3 colrows.
func TestSTSIsSteinerSystem(t *testing.T) {
	for _, r := range []int{3, 9, 15, 21, 27, 33} {
		d := NewSTS(r)
		P := r * (r - 1) / 6
		if d.Nodes() != P {
			t.Fatalf("r=%d: Nodes = %d, want %d", r, d.Nodes(), P)
		}
		p := d.Pattern()
		if err := p.Validate(); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				if i != j && p.At(i, j) == pattern.Undefined {
					t.Fatalf("r=%d: cell (%d,%d) uncovered", r, i, j)
				}
			}
		}
		for n, cnt := range p.Counts() {
			if cnt != 6 {
				t.Fatalf("r=%d: node %d owns %d cells, want 6", r, n, cnt)
			}
		}
		// v = 3 colrows per node.
		colrows := make([]map[int]bool, P)
		for n := range colrows {
			colrows[n] = map[int]bool{}
		}
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				if i != j {
					n := p.At(i, j)
					colrows[n][i] = true
					colrows[n][j] = true
				}
			}
		}
		for n, crs := range colrows {
			if len(crs) != 3 {
				t.Fatalf("r=%d: node %d appears on %d colrows, want 3", r, n, len(crs))
			}
		}
	}
}

// TestSTSCost checks z̄ = (r−1)/2 exactly, below the √(3P/2) limit and below
// the SBC laws.
func TestSTSCost(t *testing.T) {
	for _, r := range []int{9, 15, 21, 27, 33, 39} {
		d := NewSTS(r)
		P := d.Nodes()
		want := float64(r-1) / 2
		if got := d.Pattern().CostCholesky(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("r=%d: cost %v, want %v", r, got, want)
		}
		limit := math.Sqrt(1.5 * float64(P))
		if want >= limit {
			t.Errorf("r=%d: STS cost %v not below √(3P/2) = %v", r, want, limit)
		}
		if sbcLaw := math.Sqrt(2 * float64(P)); want >= sbcLaw {
			t.Errorf("r=%d: STS cost %v not below SBC law %v", r, want, sbcLaw)
		}
	}
}

// TestSTSBeatsAlternativesAtP35 pins the headline comparison at the paper's
// P = 35 test case: STS(15) cost 7.0 vs SBC-fallback cost 8 on 32 nodes.
func TestSTSBeatsAlternativesAtP35(t *testing.T) {
	d, err := NewSTSForP(35)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Pattern().CostCholesky(); got != 7 {
		t.Fatalf("STS(15) cost %v, want 7", got)
	}
	sbc := BestSBCAtMost(35)
	if sbc.Pattern().CostCholesky() <= 7 {
		t.Fatal("SBC fallback unexpectedly at or below STS cost")
	}
}

func TestSTSOwnerOnColrow(t *testing.T) {
	d := NewSTS(9)
	r := d.Pattern().Rows()
	for i := 0; i < 2*r; i++ {
		for j := 0; j <= i; j++ {
			o := d.Owner(i, j)
			if o < 0 || o >= d.Nodes() {
				t.Fatalf("Owner(%d,%d) = %d", i, j, o)
			}
			if d.Owner(j, i) != o {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewSTSForPError(t *testing.T) {
	if _, err := NewSTSForP(23); err == nil {
		t.Error("NewSTSForP(23): want error")
	}
}

func TestSTSPanics(t *testing.T) {
	for _, r := range []int{0, 4, 6, 7, 15 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSTS(%d) did not panic", r)
				}
			}()
			NewSTS(r)
		}()
	}
}
