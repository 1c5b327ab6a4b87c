package tile

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Golden tests for the blocked kernel rewrites against the retained scalar
// reference kernels (ref_test.go): every side/uplo/trans/diag combination on
// odd, non-multiple-of-nb sizes that straddle all the blocking boundaries
// (trsmNB, factorRecCut, syrkBlock, gemmDirectMax, gemmKC), so interior
// blocks, edge blocks and the scalar factorization bases are all exercised,
// under every microkernel this CPU runs (testKernels). The references are
// the exact implementations the blocked code replaced; golden_test.go
// separately checks both against naive triple loops.

// blockedSizes cross every blocking boundary: 1, 7, 8 (lu-overhead's b), 16
// (factorRecCut, a scalar factorization base) and 24 (trsmNB) are one
// substitution block each; 25 is the first size past trsmNB and splits
// oddly (16 + 9); 40 splits into two halves that are both substitution bases
// (24 + 16); 63/65 straddle syrkBlock=64; 129 and 257 recurse several levels
// and are no multiple of any kernel's nr; 500 is the paper's tile size (past
// gemmKC=240 in depth).
var blockedSizes = []int{1, 7, 8, 16, 24, 25, 40, 63, 65, 129, 257, 500}

func TestGoldenTrsmBlockedVsRef(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(21))
	for _, n := range blockedSizes {
		m := n/2 + 1 // odd, non-multiple of every block size
		for _, side := range []Side{Left, Right} {
			for _, uplo := range []Uplo{Lower, Upper} {
				for _, trans := range []Trans{NoTrans, TransT} {
					for _, diag := range []Diag{NonUnit, Unit} {
						alphas := []float64{1.25, 1, 0}
						if n > 129 {
							alphas = alphas[:1] // scaling is size-blind; spare the O(n³) references
						}
						for _, alpha := range alphas {
							a := New(n, n)
							a.Random(rng)
							// Neither the triangle uplo does not name nor a
							// unit diagonal's stored values may be read:
							// poison both.
							for i := 0; i < n; i++ {
								for j := 0; j < n; j++ {
									if (uplo == Lower && j > i) || (uplo == Upper && j < i) {
										a.Set(i, j, math.NaN())
									}
								}
								if diag == Unit {
									a.Set(i, i, math.NaN())
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
							want := b0.Clone()
							trsmRef(side, uplo, trans, diag, alpha, a, want)
							// Relative bound: triangular solutions can grow
							// with n, and the two orderings accumulate
							// roundoff proportional to the solution scale.
							scale := 1.0
							for _, v := range want.Data {
								if av := math.Abs(v); av > scale {
									scale = av
								}
							}
							tol := 1e-12 * float64(n) * scale
							for _, mk := range kernels {
								micro = mk
								b := b0.Clone()
								Trsm(side, uplo, trans, diag, alpha, a, b)
								if d := maxAbsDiff(b, want); d > tol {
									t.Fatalf("[%s] Trsm(%v,%v,%v,%v) n=%d m=%d alpha=%g: max diff vs reference %g",
										mk.name, side, uplo, trans, diag, n, m, alpha, d)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGoldenTrsmAlphaZero: alpha == 0 must zero-fill B without reading A —
// here all NaN — even when the old contents of B are non-finite (the Gemm
// beta == 0 contract, which the scale-by-zero path of the reference leaked
// NaN through), on the small path and the recursive one, from both sides.
func TestGoldenTrsmAlphaZero(t *testing.T) {
	for _, n := range []int{7, 65} {
		for _, side := range []Side{Left, Right} {
			for _, trans := range []Trans{NoTrans, TransT} {
				a := New(n, n)
				b := New(n, 33)
				if side == Right {
					b = New(33, n)
				}
				for _, x := range []*Tile{a, b} {
					for i := range x.Data {
						x.Data[i] = math.NaN()
					}
				}
				Trsm(side, Lower, trans, NonUnit, 0, a, b)
				for i, v := range b.Data {
					if v != 0 {
						t.Fatalf("n=%d side=%v trans=%v: alpha=0 left B[%d] = %g, want 0", n, side, trans, i, v)
					}
				}
			}
		}
	}
}

func TestGoldenSyrkBlockedVsRef(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(22))
	// SYRK's blocking is syrkBlock and gemmKC alone: the sizes blockedSizes
	// adds for the recursive solves and factorizations buy nothing here.
	// n = k = 16 is the diagonal block POTRF's recursion hands SYRK at b = 32.
	for _, n := range []int{1, 7, 16, 63, 65, 129, 500} {
		for _, k := range []int{1, 16, 31, 65, 241} {
			for _, uplo := range []Uplo{Lower, Upper} {
				for _, trans := range []Trans{NoTrans, TransT} {
					for _, coef := range [][2]float64{{-1, 1}, {0.5, 0}, {0, 1}} {
						alpha, beta := coef[0], coef[1]
						a := New(n, k)
						if trans == TransT {
							a = New(k, n)
						}
						a.Random(rng)
						c0 := New(n, n)
						c0.Random(rng)
						for _, mk := range kernels {
							// syrkRef's rectangles run the packed GEMM too:
							// reference and rewrite share the kernel.
							micro = mk
							want, c := c0.Clone(), c0.Clone()
							syrkRef(uplo, trans, alpha, a, beta, want)
							Syrk(uplo, trans, alpha, a, beta, c)
							if d := maxAbsDiff(c, want); d > 1e-12*float64(k+1) {
								t.Fatalf("[%s] Syrk(%v,%v) n=%d k=%d alpha=%g beta=%g: max diff vs reference %g",
									mk.name, uplo, trans, n, k, alpha, beta, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestGoldenGetrfBlockedVsRef(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(23))
	for _, n := range blockedSizes {
		orig := domTile(rng, n)
		want := orig.Clone()
		if err := getrfRef(want); err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		for _, mk := range kernels {
			micro = mk
			a := orig.Clone()
			if err := Getrf(a); err != nil {
				t.Fatalf("[%s] n=%d: blocked: %v", mk.name, n, err)
			}
			// Diagonally dominant input: both factorizations are stable and
			// the factors agree to roundoff accumulated over n updates.
			if d := maxAbsDiff(a, want); d > 1e-11*float64(n+1) {
				t.Fatalf("[%s] Getrf n=%d: max factor diff vs reference %g", mk.name, n, d)
			}
		}
	}
}

func TestGoldenPotrfBlockedVsRef(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(24))
	for _, n := range blockedSizes {
		orig := spdTile(rng, n)
		want := orig.Clone()
		if err := potrfRef(want); err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		for _, mk := range kernels {
			micro = mk
			a := orig.Clone()
			if err := Potrf(a); err != nil {
				t.Fatalf("[%s] n=%d: blocked: %v", mk.name, n, err)
			}
			if d := maxAbsDiff(a, want); d > 1e-11*float64(n+1) {
				t.Fatalf("[%s] Potrf n=%d: max factor diff vs reference %g", mk.name, n, d)
			}
			// The strictly upper triangle must be untouched by the blocked
			// paths.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if a.At(i, j) != orig.At(i, j) {
						t.Fatalf("[%s] Potrf n=%d: modified upper element (%d,%d)", mk.name, n, i, j)
					}
				}
			}
		}
	}
}

// TestBlockedFactorErrorOffsets: a failure deep inside a later panel must
// report the *global* pivot/minor index, not the panel-local one.
func TestBlockedFactorErrorOffsets(t *testing.T) {
	n := 129 // recursion several levels deep
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
	}
	a.Set(70, 70, 0) // inside the second panel
	err := Getrf(a)
	if !errors.Is(err, ErrZeroPivot) {
		t.Fatalf("Getrf: err = %v, want ErrZeroPivot", err)
	}
	if !strings.Contains(err.Error(), "step 71") {
		t.Errorf("Getrf error lost the global step: %v", err)
	}

	b := New(n, n)
	for i := 0; i < n; i++ {
		b.Set(i, i, 2)
	}
	b.Set(70, 70, -3)
	err = Potrf(b)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("Potrf: err = %v, want ErrNotPositiveDefinite", err)
	}
	if !strings.Contains(err.Error(), "minor 71") {
		t.Errorf("Potrf error lost the global minor index: %v", err)
	}
}

// TestBlockedFactorLargeReconstruct: at the paper's tile size the blocked
// factors must still reconstruct the input through the residual, the same
// bound the distributed factorization tests use.
func TestBlockedFactorLargeReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 500
	a := domTile(rng, n)
	orig := a.Clone()
	if err := Getrf(a); err != nil {
		t.Fatal(err)
	}
	l, u := New(n, n), New(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < i; j++ {
			l.Set(i, j, a.At(i, j))
		}
		for j := i; j < n; j++ {
			u.Set(i, j, a.At(i, j))
		}
	}
	lu := New(n, n)
	Gemm(NoTrans, NoTrans, 1, l, u, 0, lu)
	num, den := 0.0, orig.FrobeniusNorm()
	for i, v := range lu.Data {
		num += (v - orig.Data[i]) * (v - orig.Data[i])
	}
	if res := math.Sqrt(num) / den; res > 1e-13 {
		t.Fatalf("‖A−LU‖/‖A‖ = %g", res)
	}
}
