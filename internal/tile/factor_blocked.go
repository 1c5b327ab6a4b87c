package tile

import (
	"fmt"
	"math"
)

// Recursive factorizations. Unpivoted LU and Cholesky need no tall panel —
// nothing is searched for down a column — so both split the square tile in
// two on the diagonal: factor the leading block, solve the off-diagonal
// blocks against it with the blocked TRSM, update the trailing block through
// the GEMM core (gemmView) or the SYRK view that routes its rectangles
// through it, and factor the trailing block. Every flop outside the
// factorRecCut-sized diagonal blocks runs in a TRSM or GEMM as large as the
// split allows.

// factorRecCut is the diagonal block size at which the recursion stops and
// the scalar loops take over.
const factorRecCut = 16

// splitPoint halves n on a multiple of 8, so the blocks of a recursive
// factorization or solve meet on a microkernel strip.
func splitPoint(n int) int { return (n/2 + 7) &^ 7 }

// getrfView is the recursive unpivoted LU behind Getrf, over the n×n view
// ad/lda. off is the global pivot offset for error reporting.
func getrfView(ad []float64, lda, n, off int) error {
	if n <= factorRecCut {
		return getrfScalarView(ad, lda, n, off)
	}
	n1 := splitPoint(n)
	n2 := n - n1
	if err := getrfView(ad, lda, n1, off); err != nil {
		return err
	}
	a11 := opView{data: ad, ld: lda}
	a12, a21, a22 := ad[n1:], ad[n1*lda:], ad[n1*lda+n1:]
	// A12 = L11⁻¹·A12 and A21 = A21·U11⁻¹, then A22 −= A21·A12.
	trsmBlockedView(Left, Lower, Unit, a11, n1, a12, lda, n1, n2)
	trsmBlockedView(Right, Upper, NonUnit, a11, n1, a21, lda, n2, n1)
	gemmView(-1, opView{data: a21, ld: lda}, opView{data: a12, ld: lda}, n2, n2, n1, a22, lda)
	return getrfView(a22, lda, n2, off+n1)
}

// getrfScalarView is the scalar right-looking LU of the n×n diagonal block at
// ad/lda the recursion bottoms out in — and, over a full view, the original
// unblocked kernel.
func getrfScalarView(ad []float64, lda, n, off int) error {
	for k := 0; k < n; k++ {
		p := ad[k*lda+k]
		if p == 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("%w (step %d, pivot %g)", ErrZeroPivot, off+k+1, p)
		}
		ak := ad[k*lda : k*lda+n]
		for i := k + 1; i < n; i++ {
			ai := ad[i*lda : i*lda+n]
			f := ai[k] / p
			ai[k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				ai[j] -= f * ak[j]
			}
		}
	}
	return nil
}

// potrfView is the recursive Cholesky behind Potrf, over the n×n view
// ad/lda. Only the lower triangle is read and written. off is the global
// leading-minor offset for error reporting.
func potrfView(ad []float64, lda, n, off int) error {
	if n <= factorRecCut {
		return potrfScalarView(ad, lda, n, off)
	}
	n1 := splitPoint(n)
	n2 := n - n1
	if err := potrfView(ad, lda, n1, off); err != nil {
		return err
	}
	a21, a22 := ad[n1*lda:], ad[n1*lda+n1:]
	// A21 = A21·L11⁻ᵀ — the upper triangle L11ᵀ is the transposed view of the
	// factored leading block — then A22 −= A21·A21ᵀ on the lower triangle.
	trsmBlockedView(Right, Upper, NonUnit, opView{data: ad, ld: lda, trans: true}, n1, a21, lda, n2, n1)
	syrkView(Lower, -1, a21, lda, n2, n1, a22, lda)
	return potrfView(a22, lda, n2, off+n1)
}

// potrfScalarView is the scalar Cholesky of the nb×nb diagonal block at
// ad/lda (lower triangle only) — and, over a full view, the original
// unblocked kernel — row by row: L[i][j] is A[i][j] less the dot product of
// the finished parts of rows i and j, so every inner loop runs along two
// contiguous rows and nothing strides down a column. off is the global
// leading-minor offset for errors.
func potrfScalarView(ad []float64, lda, nb, off int) error {
	for i := 0; i < nb; i++ {
		ri := ad[i*lda : i*lda+i+1]
		for j := 0; j <= i; j++ {
			rj := ad[j*lda : j*lda+j+1]
			s := ri[j]
			for l, v := range rj[:j] {
				s -= ri[l] * v
			}
			if j < i {
				ri[j] = s / rj[j]
				continue
			}
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("%w (leading minor %d, pivot %g)", ErrNotPositiveDefinite, off+i+1, s)
			}
			ri[i] = math.Sqrt(s)
		}
	}
	return nil
}
