package tile

import (
	"errors"
	"fmt"
)

// ErrNotPositiveDefinite is returned by Potrf when a leading minor is not
// positive definite.
var ErrNotPositiveDefinite = errors.New("tile: matrix not positive definite")

// ErrZeroPivot is returned by Getrf when an exactly zero (or non-finite)
// pivot is encountered; the unpivoted factorization cannot continue.
var ErrZeroPivot = errors.New("tile: zero pivot in unpivoted LU")

// ErrShape is returned by Getrf and Potrf when the tile is not square.
// Shape violations surface as errors (not panics) so a malformed task
// aborts the distributed run through the usual kernel-error path.
var ErrShape = errors.New("tile: invalid tile shape")

// Potrf computes the Cholesky factorization A = L·Lᵀ of a symmetric positive
// definite tile in place, using only the lower triangle. On return the lower
// triangle of A holds L; the strictly upper triangle is left untouched.
// This is the diagonal-tile kernel of the tiled Cholesky factorization.
//
// The implementation is recursive (factor_blocked.go): scalar Cholesky runs
// only on diagonal blocks of at most factorRecCut rows; the off-diagonal
// solve goes through the blocked TRSM and the trailing update through the
// packed SYRK/GEMM microkernel machinery.
func Potrf(a *Tile) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("%w: Potrf needs a square tile, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	return potrfView(a.Data, a.Cols, a.Rows, 0)
}

// Getrf computes the unpivoted LU factorization A = L·U in place: on return
// the strictly lower triangle holds the multipliers of the unit-lower L and
// the upper triangle (with diagonal) holds U. The paper's communication
// analysis covers the right-looking unpivoted variant; callers must supply
// matrices for which pivoting is unnecessary (e.g. diagonally dominant).
//
// The implementation is recursive (factor_blocked.go): scalar LU runs only on
// diagonal blocks of at most factorRecCut rows; two blocked-TRSM solves and a
// packed-GEMM trailing update per split carry the O(n³) bulk at the
// microkernel's rate.
func Getrf(a *Tile) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("%w: Getrf needs a square tile, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	return getrfView(a.Data, a.Cols, a.Rows, 0)
}

// Flops returns the floating-point operation counts of the four kernels for
// square tiles of size b, as used by the simulator's machine model. Values
// follow the standard LAPACK conventions.
func FlopsGemm(b int) float64  { n := float64(b); return 2 * n * n * n }
func FlopsGeadd(b int) float64 { n := float64(b); return n * n }
func FlopsSyrk(b int) float64  { n := float64(b); return n * n * (n + 1) }
func FlopsTrsm(b int) float64  { n := float64(b); return n * n * n }
func FlopsPotrf(b int) float64 { n := float64(b); return n * n * n / 3 }
func FlopsGetrf(b int) float64 { n := float64(b); return 2 * n * n * n / 3 }
