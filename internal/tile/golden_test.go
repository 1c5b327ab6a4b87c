package tile

import (
	"math"
	"math/rand"
	"testing"
)

// Golden tests for the blocked kernel rewrites: every Gemm/Syrk/Trsm variant
// on non-square and odd-sized tiles, compared element-wise against the
// straightforward triple-loop references below. The sizes deliberately cross
// the blocking boundaries (every microkernel's mr/nr strips, gemmMC row
// panels, gemmKC depth panels, syrkBlock columns, trsmNB solves) so edge and
// interior paths are both exercised — the blocked implementations cannot
// silently change numerics without failing here. Each case is computed under
// every microkernel this CPU runs (testKernels), not only the one start-up
// selected.

// naiveSyrk is the reference three-loop rank-k update, writing only the uplo
// triangle.
func naiveSyrk(uplo Uplo, trans Trans, alpha float64, a *Tile, beta float64, c *Tile) *Tile {
	n, k := opDims(trans, a)
	opA := func(i, l int) float64 {
		if trans == NoTrans {
			return a.At(i, l)
		}
		return a.At(l, i)
	}
	out := c.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (uplo == Lower && j > i) || (uplo == Upper && j < i) {
				continue
			}
			s := 0.0
			for l := 0; l < k; l++ {
				s += opA(i, l) * opA(j, l)
			}
			base := 0.0
			if beta != 0 { // 0·NaN must not leak
				base = beta * c.At(i, j)
			}
			out.Set(i, j, alpha*s+base)
		}
	}
	return out
}

// naiveTrsm is the reference substitution solve over the dense effective
// op(A), column by column (Left) or row by row (Right).
func naiveTrsm(side Side, uplo Uplo, trans Trans, diag Diag, alpha float64, a, b *Tile) *Tile {
	n := a.Rows
	e := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := a.At(i, j)
			if trans == TransT {
				v = a.At(j, i)
			}
			if (uplo == Lower) != (trans == TransT) { // effective lower
				if j > i {
					v = 0
				}
			} else {
				if j < i {
					v = 0
				}
			}
			e.Set(i, j, v)
		}
	}
	if diag == Unit {
		for i := 0; i < n; i++ {
			e.Set(i, i, 1)
		}
	}
	effLower := (uplo == Lower) != (trans == TransT)
	x := b.Clone()
	for i := range x.Data {
		x.Data[i] *= alpha
	}
	if side == Left {
		// Solve E·X = alpha·B one column at a time.
		for col := 0; col < b.Cols; col++ {
			if effLower {
				for i := 0; i < n; i++ {
					s := x.At(i, col)
					for l := 0; l < i; l++ {
						s -= e.At(i, l) * x.At(l, col)
					}
					x.Set(i, col, s/e.At(i, i))
				}
			} else {
				for i := n - 1; i >= 0; i-- {
					s := x.At(i, col)
					for l := i + 1; l < n; l++ {
						s -= e.At(i, l) * x.At(l, col)
					}
					x.Set(i, col, s/e.At(i, i))
				}
			}
		}
		return x
	}
	// Right: solve X·E = alpha·B one row at a time.
	for row := 0; row < b.Rows; row++ {
		if effLower {
			for j := n - 1; j >= 0; j-- {
				s := x.At(row, j)
				for l := j + 1; l < n; l++ {
					s -= x.At(row, l) * e.At(l, j)
				}
				x.Set(row, j, s/e.At(j, j))
			}
		} else {
			for j := 0; j < n; j++ {
				s := x.At(row, j)
				for l := 0; l < j; l++ {
					s -= x.At(row, l) * e.At(l, j)
				}
				x.Set(row, j, s/e.At(j, j))
			}
		}
	}
	return x
}

// maxAbsDiff is the largest element-wise distance between got and want; a
// NaN on one side alone is an infinite distance, so no tolerance lets a
// leaked NaN through.
func maxAbsDiff(got, want *Tile) float64 {
	m := 0.0
	for i := range got.Data {
		d := math.Abs(got.Data[i] - want.Data[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestGoldenGemm: all four Trans combinations on odd, non-square shapes that
// straddle the panel boundaries, with accumulating, scaling and overwriting
// beta values.
func TestGoldenGemm(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {15, 16, 17}, // below the small-path cutoff
		{16, 16, 16}, {23, 24, 25}, // just past it
		{33, 17, 9}, {64, 8, 241}, // crossing mr/nr/gemmKC edges
		{67, 45, 251},  // odd everything, k past one KC panel
		{130, 257, 65}, // m past two MC panels, n past many strips
		{5, 300, 300}, {300, 5, 300},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		for _, ta := range []Trans{NoTrans, TransT} {
			for _, tb := range []Trans{NoTrans, TransT} {
				for _, coef := range [][2]float64{{1, 1}, {-1, 1}, {0.5, 0}, {2, -0.25}} {
					alpha, beta := coef[0], coef[1]
					a := New(m, k)
					if ta == TransT {
						a = New(k, m)
					}
					b := New(k, n)
					if tb == TransT {
						b = New(n, k)
					}
					a.Random(rng)
					b.Random(rng)
					c0 := New(m, n)
					c0.Random(rng)
					want := naiveGemm(ta, tb, alpha, a, b, beta, c0)
					for _, mk := range kernels {
						micro = mk
						c := c0.Clone()
						Gemm(ta, tb, alpha, a, b, beta, c)
						if d := maxAbsDiff(c, want); d > 1e-12*float64(k+1) {
							t.Fatalf("[%s] Gemm(%v,%v) m=%d n=%d k=%d alpha=%g beta=%g: max diff %g",
								mk.name, ta, tb, m, n, k, alpha, beta, d)
						}
					}
				}
			}
		}
	}
}

// TestGoldenGemmBetaZeroNaN: beta == 0 must overwrite C even when the old
// contents are NaN/Inf (the 0·NaN bug the zero-fill path fixes), on both the
// small and the blocked path.
func TestGoldenGemmBetaZeroNaN(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(12))
	for _, s := range [][3]int{{4, 4, 4}, {67, 45, 251}} {
		m, n, k := s[0], s[1], s[2]
		a, b := New(m, k), New(k, n)
		a.Random(rng)
		b.Random(rng)
		zero := New(m, n)
		want := naiveGemm(NoTrans, NoTrans, 1.5, a, b, 0, zero)
		for _, mk := range kernels {
			micro = mk
			c := New(m, n)
			for i := range c.Data {
				c.Data[i] = math.NaN()
			}
			c.Set(0, 0, math.Inf(1))
			Gemm(NoTrans, NoTrans, 1.5, a, b, 0, c)
			for i, v := range c.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("[%s] m=%d: beta=0 leaked non-finite old C at %d", mk.name, m, i)
				}
				if math.Abs(v-want.Data[i]) > 1e-12*float64(k) {
					t.Fatalf("[%s] m=%d: beta=0 wrong value at %d", mk.name, m, i)
				}
			}
		}
	}
}

// TestGoldenSyrk: both triangles × both transposes on odd non-square
// op(A) shapes crossing syrkBlock and gemmKC, including beta = 0 over NaN.
func TestGoldenSyrk(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(13))
	shapes := [][2]int{{1, 1}, {7, 5}, {33, 65}, {65, 241}, {130, 33}, {129, 127}}
	for _, s := range shapes {
		n, k := s[0], s[1]
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []Trans{NoTrans, TransT} {
				for _, coef := range [][2]float64{{1, 1}, {-1, 0.5}, {0.75, 0}} {
					alpha, beta := coef[0], coef[1]
					a := New(n, k)
					if trans == TransT {
						a = New(k, n)
					}
					a.Random(rng)
					orig := New(n, n)
					orig.Random(rng)
					if beta == 0 {
						// The triangle must be overwritten even over NaN.
						for i := range orig.Data {
							orig.Data[i] = math.NaN()
						}
					}
					want := naiveSyrk(uplo, trans, alpha, a, beta, orig)
					for _, mk := range kernels {
						micro = mk
						c := orig.Clone()
						Syrk(uplo, trans, alpha, a, beta, c)
						for i := 0; i < n; i++ {
							for j := 0; j < n; j++ {
								inTri := (uplo == Lower && j <= i) || (uplo == Upper && j >= i)
								got, ref := c.At(i, j), want.At(i, j)
								if inTri {
									if math.IsNaN(got) || math.Abs(got-ref) > 1e-12*float64(k+1) {
										t.Fatalf("[%s] Syrk(%v,%v) n=%d k=%d beta=%g wrong at (%d,%d): got %g want %g",
											mk.name, uplo, trans, n, k, beta, i, j, got, ref)
									}
								} else if o := orig.At(i, j); got != o && !(math.IsNaN(got) && math.IsNaN(o)) {
									t.Fatalf("[%s] Syrk(%v,%v) n=%d touched (%d,%d) outside triangle", mk.name, uplo, trans, n, i, j)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGoldenTrsm: all 16 (side, uplo, trans, diag) combinations on odd
// non-square B, against the substitution reference, on both sides of
// trsmNB and with B dimensions that are no multiple of any block.
func TestGoldenTrsm(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(14))
	shapes := [][2]int{{1, 1}, {5, 3}, {33, 7}, {67, 45}, {64, 129}} // (n, other dim)
	for _, s := range shapes {
		n, m := s[0], s[1]
		for _, side := range []Side{Left, Right} {
			for _, uplo := range []Uplo{Lower, Upper} {
				for _, trans := range []Trans{NoTrans, TransT} {
					for _, diag := range []Diag{NonUnit, Unit} {
						a := New(n, n)
						a.Random(rng)
						for i := 0; i < n; i++ {
							// Keep the solve well conditioned; with Unit the
							// stored diagonal must be ignored, so poison it.
							if diag == Unit {
								a.Set(i, i, 1e30)
							} else {
								a.Set(i, i, 2+rng.Float64())
							}
						}
						var b0 *Tile
						if side == Left {
							b0 = New(n, m)
						} else {
							b0 = New(m, n)
						}
						b0.Random(rng)
						alpha := 1.25
						want := naiveTrsm(side, uplo, trans, diag, alpha, a, b0)
						for _, mk := range kernels {
							micro = mk
							b := b0.Clone()
							Trsm(side, uplo, trans, diag, alpha, a, b)
							if d := maxAbsDiff(b, want); d > 1e-9 {
								t.Fatalf("[%s] Trsm(%v,%v,%v,%v) n=%d m=%d: max diff %g",
									mk.name, side, uplo, trans, diag, n, m, d)
							}
						}
					}
				}
			}
		}
	}
}
