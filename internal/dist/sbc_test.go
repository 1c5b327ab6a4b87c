package dist

import (
	"math"
	"testing"
)

func TestSBCValidP(t *testing.T) {
	cases := []struct {
		p    int
		r    int
		kind SBCKind
		ok   bool
	}{
		{1, 2, SBCPairKind, true}, // 2*1/2
		{2, 2, SBCEvenKind, true}, // 2²/2
		{3, 3, SBCPairKind, true}, // 3*2/2
		{6, 4, SBCPairKind, true}, // 4*3/2
		{8, 4, SBCEvenKind, true}, // 4²/2
		{10, 5, SBCPairKind, true},
		{18, 6, SBCEvenKind, true},
		{21, 7, SBCPairKind, true},
		{28, 8, SBCPairKind, true},
		{32, 8, SBCEvenKind, true},
		{36, 9, SBCPairKind, true},
		{23, 0, 0, false},
		{31, 0, 0, false},
		{35, 0, 0, false},
		{39, 0, 0, false},
	}
	for _, c := range cases {
		r, kind, ok := SBCValidP(c.p)
		if ok != c.ok {
			t.Errorf("SBCValidP(%d) ok = %v, want %v", c.p, ok, c.ok)
			continue
		}
		if ok && (r != c.r || kind != c.kind) {
			t.Errorf("SBCValidP(%d) = (%d, %v), want (%d, %v)", c.p, r, kind, c.r, c.kind)
		}
	}
}

// TestSBCPairStructure checks the pair construction: node {i,j} owns exactly
// the two symmetric cells, every colrow holds r-1 distinct nodes, and the
// Cholesky cost is r-1 (the paper's Table Ib value, e.g. T=6 for P=21).
func TestSBCPairStructure(t *testing.T) {
	for r := 2; r <= 12; r++ {
		d := NewSBCPair(r)
		P := r * (r - 1) / 2
		if d.Nodes() != P {
			t.Fatalf("r=%d: Nodes = %d, want %d", r, d.Nodes(), P)
		}
		p := d.Pattern()
		if err := p.Validate(); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		counts := p.Counts()
		for n, cnt := range counts {
			if cnt != 2 {
				t.Fatalf("r=%d: node %d owns %d cells, want 2", r, n, cnt)
			}
		}
		if got, want := p.CostCholesky(), float64(r-1); math.Abs(got-want) > 1e-12 {
			t.Fatalf("r=%d: CostCholesky = %v, want %v", r, got, want)
		}
		// Cost law: z̄ = r-1 ≈ √(2P) - 0.5.
		if law := math.Sqrt(2*float64(P)) - 0.5; math.Abs(p.CostCholesky()-law) > 0.51 {
			t.Fatalf("r=%d: cost %v too far from √(2P)-0.5 = %v", r, p.CostCholesky(), law)
		}
	}
}

// TestSBCEvenStructure checks the split-pair construction for P = r²/2:
// every colrow holds r distinct nodes (cost law √(2P) exactly).
func TestSBCEvenStructure(t *testing.T) {
	for r := 2; r <= 12; r += 2 {
		d := NewSBCEven(r)
		P := r * r / 2
		if d.Nodes() != P {
			t.Fatalf("r=%d: Nodes = %d, want %d", r, d.Nodes(), P)
		}
		p := d.Pattern()
		if err := p.Validate(); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		// r split nodes own 1 cell; the rest own 2.
		ones, twos := 0, 0
		for _, cnt := range p.Counts() {
			switch cnt {
			case 1:
				ones++
			case 2:
				twos++
			default:
				t.Fatalf("r=%d: node owns %d cells", r, cnt)
			}
		}
		if ones != r || twos != P-r {
			t.Fatalf("r=%d: %d single-cell and %d double-cell nodes, want %d and %d",
				r, ones, twos, r, P-r)
		}
		if got, want := p.CostCholesky(), float64(r); math.Abs(got-want) > 1e-12 {
			t.Fatalf("r=%d: CostCholesky = %v, want %v (= √(2P))", r, got, want)
		}
	}
}

// TestSBCTableIb checks the SBC rows of the paper's Table Ib.
func TestSBCTableIb(t *testing.T) {
	cases := []struct {
		p    int
		dims string
		cost float64
	}{
		{21, "7x7", 6},
		{28, "8x8", 7},
		{32, "8x8", 8},
		{36, "9x9", 8},
	}
	for _, c := range cases {
		d, err := NewSBC(c.p)
		if err != nil {
			t.Fatalf("P=%d: %v", c.p, err)
		}
		if got := d.Pattern().Dims(); got != c.dims {
			t.Errorf("P=%d: dims %s, want %s", c.p, got, c.dims)
		}
		if got := d.Pattern().CostCholesky(); math.Abs(got-c.cost) > 1e-12 {
			t.Errorf("P=%d: cost %v, want %v", c.p, got, c.cost)
		}
	}
}

// TestBestSBCAtMost reproduces the experimental fallback choices: for the
// paper's four test cases the SBC baseline uses 21, 28, 32 and 36 nodes.
func TestBestSBCAtMost(t *testing.T) {
	cases := []struct{ p, want int }{
		{23, 21}, {31, 28}, {35, 32}, {39, 36},
		{21, 21}, {1, 1}, {2, 2},
	}
	for _, c := range cases {
		d := BestSBCAtMost(c.p)
		if d.Nodes() != c.want {
			t.Errorf("BestSBCAtMost(%d) uses %d nodes, want %d", c.p, d.Nodes(), c.want)
		}
	}
}

// TestSBCOwnerSymmetric checks mirroring and that every tile's owner lies on
// the tile's pattern colrow (the property that keeps diagonal assignment
// communication-free).
func TestSBCOwnerSymmetric(t *testing.T) {
	d := NewSBCPair(5)
	r := d.Pattern().Rows()
	for i := 0; i < 3*r; i++ {
		for j := 0; j <= i; j++ {
			o := d.Owner(i, j)
			if o < 0 || o >= d.Nodes() {
				t.Fatalf("Owner(%d,%d) = %d out of range", i, j, o)
			}
			if d.Owner(j, i) != o {
				t.Fatalf("Owner not symmetric at (%d,%d)", i, j)
			}
			// The owner must appear on pattern colrow (i mod r) and (j mod r).
			for _, cr := range []int{i % r, j % r} {
				found := false
				for k := 0; k < r; k++ {
					if d.Pattern().At(cr, k) == o || d.Pattern().At(k, cr) == o {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("Owner(%d,%d) = %d not on colrow %d", i, j, o, cr)
				}
			}
		}
	}
}

func TestNewSBCError(t *testing.T) {
	if _, err := NewSBC(23); err == nil {
		t.Error("NewSBC(23): want error")
	}
}

func TestSBCPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSBCPair(1) },
		func() { NewSBCEven(3) },
		func() { NewSBCEven(0) },
		func() { BestSBCAtMost(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
