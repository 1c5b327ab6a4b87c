package tile

import (
	"fmt"
	"math"
)

// The scalar reference kernels: the pre-blocking implementations of Trsm,
// Syrk, Getrf and Potrf, retained verbatim so the golden tests can diff the
// blocked rewrites against the exact code they replaced (on top of the
// independent naive triple-loop references). They live in a _test file —
// production code bottoms out in the view-based scalar cores instead.

// trsmRef is the original substitution-only Trsm: row-sliced forward/backward
// substitution on the left, rb-row-blocked substitution on the right.
func trsmRef(side Side, uplo Uplo, trans Trans, diag Diag, alpha float64, a, b *Tile) {
	const rb = 8 // rows of B per right-side block
	if a.Rows != a.Cols {
		panic("tile: Trsm needs a square triangular tile")
	}
	n := a.Rows
	if (side == Left && b.Rows != n) || (side == Right && b.Cols != n) {
		panic(fmt.Sprintf("tile: Trsm shape mismatch: A=%dx%d B=%dx%d side=%d",
			a.Rows, a.Cols, b.Rows, b.Cols, side))
	}
	if alpha != 1 {
		for i := range b.Data {
			b.Data[i] *= alpha
		}
	}
	ad, lda := a.Data, a.Cols
	effUplo := uplo
	if trans == TransT {
		buf := getPack(n * n)
		t := buf.Data
		for i := 0; i < n; i++ {
			src := a.Row(i)
			for j, v := range src {
				t[j*n+i] = v
			}
		}
		ad, lda = t, n
		defer putPack(buf)
		if uplo == Lower {
			effUplo = Upper
		} else {
			effUplo = Lower
		}
	}

	switch {
	case side == Left && effUplo == Lower:
		for i := 0; i < n; i++ {
			bi := b.Row(i)
			ai := ad[i*lda : i*lda+n]
			for k := 0; k < i; k++ {
				f := ai[k]
				if f == 0 {
					continue
				}
				bk := b.Row(k)
				for j := range bi {
					bi[j] -= f * bk[j]
				}
			}
			if diag == NonUnit {
				d := ai[i]
				for j := range bi {
					bi[j] /= d
				}
			}
		}
	case side == Left && effUplo == Upper:
		for i := n - 1; i >= 0; i-- {
			bi := b.Row(i)
			ai := ad[i*lda : i*lda+n]
			for k := i + 1; k < n; k++ {
				f := ai[k]
				if f == 0 {
					continue
				}
				bk := b.Row(k)
				for j := range bi {
					bi[j] -= f * bk[j]
				}
			}
			if diag == NonUnit {
				d := ai[i]
				for j := range bi {
					bi[j] /= d
				}
			}
		}
	case side == Right && effUplo == Lower:
		for r0 := 0; r0 < b.Rows; r0 += rb {
			r1 := r0 + rb
			if r1 > b.Rows {
				r1 = b.Rows
			}
			for j := n - 1; j >= 0; j-- {
				aj := ad[j*lda : j*lda+n]
				d := aj[j]
				for r := r0; r < r1; r++ {
					br := b.Row(r)
					if diag == NonUnit {
						br[j] /= d
					}
					f := br[j]
					if f == 0 {
						continue
					}
					head := br[:j]
					ah := aj[:j]
					for idx := range head {
						head[idx] -= f * ah[idx]
					}
				}
			}
		}
	default: // side == Right && effUplo == Upper
		for r0 := 0; r0 < b.Rows; r0 += rb {
			r1 := r0 + rb
			if r1 > b.Rows {
				r1 = b.Rows
			}
			for j := 0; j < n; j++ {
				aj := ad[j*lda : j*lda+n]
				d := aj[j]
				for r := r0; r < r1; r++ {
					br := b.Row(r)
					if diag == NonUnit {
						br[j] /= d
					}
					f := br[j]
					if f == 0 {
						continue
					}
					tail := br[j+1:]
					at := aj[j+1:]
					for idx := range tail {
						tail[idx] -= f * at[idx]
					}
				}
			}
		}
	}
}

// syrkRef is the original Syrk whose diagonal triangles run scalar dot
// products (off-diagonal panels already used the packed GEMM).
func syrkRef(uplo Uplo, trans Trans, alpha float64, a *Tile, beta float64, c *Tile) {
	n, k := opDims(trans, a)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("tile: Syrk shape mismatch: op(A)=%dx%d C=%dx%d", n, k, c.Rows, c.Cols))
	}
	if beta != 1 {
		for i := 0; i < n; i++ {
			var row []float64
			if uplo == Lower {
				row = c.Row(i)[:i+1]
			} else {
				row = c.Row(i)[i:]
			}
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 {
		return
	}

	ad, lda := a.Data, a.Cols
	if trans == TransT {
		buf := getPack(n * k)
		t := buf.Data
		for l := 0; l < k; l++ {
			src := a.Row(l)
			for i, v := range src {
				t[i*k+l] = v
			}
		}
		ad, lda = t, k
		defer putPack(buf)
	}

	for j0 := 0; j0 < n; j0 += syrkBlock {
		j1 := j0 + syrkBlock
		if j1 > n {
			j1 = n
		}
		rows := opView{data: ad[j0*lda:], ld: lda, trans: true}
		if uplo == Lower && j1 < n {
			gemmView(alpha,
				opView{data: ad[j1*lda:], ld: lda},
				rows,
				n-j1, j1-j0, k, c.Data[j1*c.Cols+j0:], c.Cols)
		}
		if uplo == Upper && j0 > 0 {
			gemmView(alpha,
				opView{data: ad, ld: lda},
				rows,
				j0, j1-j0, k, c.Data[j0:], c.Cols)
		}
		for i := j0; i < j1; i++ {
			ri := ad[i*lda : i*lda+k]
			crow := c.Row(i)
			var lo, hi int
			if uplo == Lower {
				lo, hi = j0, i
			} else {
				lo, hi = i, j1-1
			}
			for j := lo; j <= hi; j++ {
				rj := ad[j*lda : j*lda+k]
				s := 0.0
				for l, v := range ri {
					s += v * rj[l]
				}
				crow[j] += alpha * s
			}
		}
	}
}

// potrfRef is the original unblocked element-at-a-time Cholesky.
func potrfRef(a *Tile) error {
	n := a.Rows
	for k := 0; k < n; k++ {
		d := a.At(k, k)
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("%w (leading minor %d, pivot %g)", ErrNotPositiveDefinite, k+1, d)
		}
		d = math.Sqrt(d)
		a.Set(k, k, d)
		for i := k + 1; i < n; i++ {
			a.Set(i, k, a.At(i, k)/d)
		}
		for j := k + 1; j < n; j++ {
			f := a.At(j, k)
			if f == 0 {
				continue
			}
			for i := j; i < n; i++ {
				a.Data[i*a.Cols+j] -= a.At(i, k) * f
			}
		}
	}
	return nil
}

// getrfRef is the original unblocked element-at-a-time right-looking LU.
func getrfRef(a *Tile) error {
	n := a.Rows
	for k := 0; k < n; k++ {
		p := a.At(k, k)
		if p == 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("%w (step %d, pivot %g)", ErrZeroPivot, k+1, p)
		}
		ak := a.Row(k)
		for i := k + 1; i < n; i++ {
			ai := a.Row(i)
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
