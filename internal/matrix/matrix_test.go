package matrix

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"anybc/internal/tile"
)

func TestDenseAccessors(t *testing.T) {
	d := NewDense(2, 3, 4)
	if d.Rows() != 8 || d.Cols() != 12 {
		t.Fatalf("global dims %dx%d, want 8x12", d.Rows(), d.Cols())
	}
	d.Set(5, 9, 3.5)
	if d.At(5, 9) != 3.5 {
		t.Fatal("Set/At broken")
	}
	if d.Tile(1, 2).At(1, 1) != 3.5 {
		t.Fatal("element landed in the wrong tile")
	}
}

func TestDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(0,1,1) did not panic")
		}
	}()
	NewDense(0, 1, 1)
}

func TestSymmetricAccessors(t *testing.T) {
	s := NewSymmetricLower(3, 2)
	if s.Rows() != 6 {
		t.Fatalf("Rows = %d, want 6", s.Rows())
	}
	s.Set(4, 1, 2.5)
	if s.At(4, 1) != 2.5 || s.At(1, 4) != 2.5 {
		t.Fatal("symmetric At/Set broken")
	}
	// Upper-triangle tile access must panic.
	defer func() {
		if recover() == nil {
			t.Error("Tile above diagonal did not panic")
		}
	}()
	s.Tile(0, 1)
}

// TestFromTilesAdoptsAndRejects: the adopting constructors keep the very
// tiles they are given, in the documented order, and name the tile when one
// is missing, nil or of another shape.
func TestFromTilesAdoptsAndRejects(t *testing.T) {
	const mt, nt, b = 3, 2, 4
	tiles := make([]*tile.Tile, mt*nt)
	for k := range tiles {
		tiles[k] = tile.New(b, b)
	}
	d := DenseFromTiles(mt, nt, b, tiles)
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			if d.Tile(i, j) != tiles[i*nt+j] {
				t.Fatalf("Dense tile (%d,%d) is not the tile given for it", i, j)
			}
		}
	}
	lower := tiles[:mt*(mt+1)/2]
	s := SymmetricLowerFromTiles(mt, b, lower)
	for i, k := 0, 0; i < mt; i++ {
		for j := 0; j <= i; j, k = j+1, k+1 {
			if s.Tile(i, j) != lower[k] {
				t.Fatalf("SymmetricLower tile (%d,%d) is not the tile given for it", i, j)
			}
		}
	}

	with := func(k int, bad *tile.Tile) []*tile.Tile {
		c := append([]*tile.Tile(nil), tiles...)
		c[k] = bad
		return c
	}
	for name, tc := range map[string]struct {
		build func()
		want  string
	}{
		"dense nil":        {func() { DenseFromTiles(mt, nt, b, with(3, nil)) }, "tile (1,1) is nil"},
		"dense shape":      {func() { DenseFromTiles(mt, nt, b, with(4, tile.New(b, b+1))) }, "tile (2,0) is 4×5"},
		"dense short data": {func() { DenseFromTiles(mt, nt, b, with(0, &tile.Tile{Rows: b, Cols: b})) }, "tile (0,0) is 4×4 over 0 elements"},
		"dense count":      {func() { DenseFromTiles(mt, nt, b, tiles[:5]) }, "5 tiles given for an 3×2"},
		"dense dims":       {func() { DenseFromTiles(0, nt, b, nil) }, "invalid shape"},
		"lower nil":        {func() { SymmetricLowerFromTiles(mt, b, with(4, nil)[:6]) }, "tile (2,1) is nil"},
		"lower shape":      {func() { SymmetricLowerFromTiles(mt, b, with(2, tile.New(b+1, b))[:6]) }, "tile (1,1) is 5×4"},
		"lower count":      {func() { SymmetricLowerFromTiles(mt, b, tiles[:5]) }, "5 tiles given for the lower triangle"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one containing %q", name, msg, tc.want)
				}
			}()
			tc.build()
		}()
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := NewDiagDominant(3, 4, 7)
	b := NewDiagDominant(3, 4, 7)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatal("DiagDominant not deterministic")
			}
		}
	}
	c := NewDiagDominant(3, 4, 8)
	same := true
	for i := 0; i < a.Rows() && same; i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != c.At(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestDiagDominance(t *testing.T) {
	a := NewDiagDominant(2, 5, 3)
	m := a.Rows()
	for i := 0; i < m; i++ {
		off := 0.0
		for j := 0; j < m; j++ {
			if i != j {
				off += math.Abs(a.At(i, j))
			}
		}
		if a.At(i, i) <= off {
			t.Fatalf("row %d not diagonally dominant: %v <= %v", i, a.At(i, i), off)
		}
	}
}

func TestSPDSymmetry(t *testing.T) {
	s := NewSPD(3, 3, 5)
	m := s.Rows()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if s.At(i, j) != s.At(j, i) {
				t.Fatalf("SPD matrix not symmetric at (%d,%d)", i, j)
			}
		}
		if s.At(i, i) <= float64(m) {
			t.Fatalf("SPD diagonal too small at %d", i)
		}
	}
}

func TestFactorLUResidual(t *testing.T) {
	for _, mt := range []int{1, 2, 4, 6} {
		orig, fact := NewDiagDominant(mt, 8, 42), NewDiagDominant(mt, 8, 42)
		if err := FactorLU(fact); err != nil {
			t.Fatalf("mt=%d: %v", mt, err)
		}
		if res := ResidualLU(orig, fact); res > 1e-12 {
			t.Errorf("mt=%d: LU residual %g", mt, res)
		}
	}
}

func TestFactorCholeskyResidual(t *testing.T) {
	for _, mt := range []int{1, 2, 4, 6} {
		orig, fact := NewSPD(mt, 8, 43), NewSPD(mt, 8, 43)
		if err := FactorCholesky(fact); err != nil {
			t.Fatalf("mt=%d: %v", mt, err)
		}
		if res := ResidualCholesky(orig, fact); res > 1e-12 {
			t.Errorf("mt=%d: Cholesky residual %g", mt, res)
		}
	}
}

// TestTiledMatchesScalar: the tiled LU of a matrix equals the scalar LU of
// the gathered matrix — tiling must not change the numerics beyond rounding.
func TestTiledMatchesScalarProperty(t *testing.T) {
	f := func(seed int64) bool {
		mt, b := 3, 4
		orig, fact := NewDiagDominant(mt, b, seed), NewDiagDominant(mt, b, seed)
		if err := FactorLU(fact); err != nil {
			return false
		}
		return ResidualLU(orig, fact) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFactorLUPanicsOnRect(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FactorLU on rectangular matrix did not panic")
		}
	}()
	_ = FactorLU(NewDense(2, 3, 2))
}

func TestFrobeniusNorm(t *testing.T) {
	d := NewDense(2, 2, 2)
	d.Set(0, 0, 3)
	d.Set(3, 3, 4)
	if got := d.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
}

// TestFrobeniusNormAtExtremeScales: a matrix whose every tile norm is finite
// and non-zero has a finite, non-zero norm, however large or small its
// entries — the tiles' sums of squares are added, not their squared norms.
func TestFrobeniusNormAtExtremeScales(t *testing.T) {
	for _, v := range []float64{1e200, -1e200, 1e-200} {
		d, s := NewDense(3, 3, 4), NewSymmetricLower(3, 4)
		for i := 0; i < d.Rows(); i++ {
			for j := 0; j < d.Cols(); j++ {
				d.Set(i, j, v)
				if j <= i {
					s.Set(i, j, v)
				}
			}
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Dense", d.FrobeniusNorm(), math.Abs(v) * 12},
			{"SymmetricLower", s.FrobeniusNorm(), math.Abs(v) * math.Sqrt(12*13/2)}, // the entries on or below the diagonal
		} {
			if math.Abs(c.got-c.want) > 1e-14*c.want {
				t.Errorf("%s of %g entries: norm %v, want %v", c.name, v, c.got, c.want)
			}
		}
	}
}

// TestFillRowMatchesElementAt: the vector fill a generated tile's rows come
// from returns ElementAt bit for bit, at every row length through 40 and
// either side of 256, from a start column whose key wraps around 2⁶⁴ inside
// the row and from ordinary ones.
func TestFillRowMatchesElementAt(t *testing.T) {
	var lengths []int
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257)
	for _, n := range lengths {
		for _, at := range [][3]int{{0, 0, -5}, {0, 0, -130}, {7, 3, 0}, {1, 257, 96}} {
			seed, i, j := int64(at[0]), at[1], at[2]
			row := make([]float64, n)
			fillRow(row, seed, i, j)
			for c, v := range row {
				if want := ElementAt(seed, i, j+c); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("n=%d seed=%d row %d from column %d: element %d is %v, ElementAt says %v", n, seed, i, j, c, v, want)
				}
			}
		}
	}
}
