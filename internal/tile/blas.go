package tile

import "fmt"

// Trans selects whether an operand is used as-is or transposed.
type Trans int

// Side selects whether the triangular operand multiplies from the left or
// the right in Trsm.
type Side int

// Uplo selects the stored/used triangle of a triangular or symmetric matrix.
type Uplo int

// Diag declares whether a triangular matrix has an implicit unit diagonal.
type Diag int

// Enumeration values follow BLAS conventions.
const (
	NoTrans Trans = iota
	TransT

	Left Side = iota
	Right

	Lower Uplo = iota
	Upper

	NonUnit Diag = iota
	Unit
)

// flipped returns the other triangle: where a transpose moves uplo's.
func (u Uplo) flipped() Uplo {
	if u == Lower {
		return Upper
	}
	return Lower
}

func opDims(t Trans, a *Tile) (rows, cols int) {
	if t == NoTrans {
		return a.Rows, a.Cols
	}
	return a.Cols, a.Rows
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C, the general tile update
// kernel (the dominant task of both factorizations), through the
// register-tiled GEMM core (gemm_blocked.go): small tiles read in place,
// large ones packed into panels first.
func Gemm(transA, transB Trans, alpha float64, a, b *Tile, beta float64, c *Tile) {
	m, k := opDims(transA, a)
	k2, n := opDims(transB, b)
	if k != k2 || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("tile: Gemm shape mismatch: op(A)=%dx%d op(B)=%dx%d C=%dx%d",
			m, k, k2, n, c.Rows, c.Cols))
	}
	switch {
	case beta == 0:
		// Explicit zero-fill: with beta == 0 the old contents of C must not
		// contribute at all, even when they are NaN or Inf (0·NaN = NaN
		// would otherwise leak through the scaling path).
		c.Zero()
	case beta != 1:
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	gemmView(alpha,
		opView{data: a.Data, ld: a.Cols, trans: transA == TransT},
		opView{data: b.Data, ld: b.Cols, trans: transB == TransT},
		m, n, k, c.Data, c.Cols)
}

// syrkBlock is the column-block width of the SYRK driver: off-diagonal
// column panels go through the blocked GEMM kernel, and each diagonal block
// runs as a full square microkernel GEMM into a scratch block, folding only
// the triangle into C.
const syrkBlock = 64

// Syrk computes the symmetric rank-k update C = alpha·op(A)·op(A)ᵀ + beta·C,
// writing only the uplo triangle of C (including the diagonal). With
// trans == NoTrans, op(A) = A; with TransT, op(A) = Aᵀ.
//
// syrkView reads op(A) as contiguous rows: for TransT the transpose is
// packed once into a pooled buffer first.
func Syrk(uplo Uplo, trans Trans, alpha float64, a *Tile, beta float64, c *Tile) {
	n, k := opDims(trans, a)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("tile: Syrk shape mismatch: op(A)=%dx%d C=%dx%d", n, k, c.Rows, c.Cols))
	}
	// Apply beta to the written triangle only, with the same 0·NaN guard as
	// Gemm.
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

	// ad/lda view op(A) row-major: rows are contiguous slices of length k.
	ad, lda := a.Data, a.Cols
	if trans == TransT {
		buf := getPack(n * k)
		defer putPack(buf)
		transposeInto(buf.Data, k, a.Data, a.Cols, k, n)
		ad, lda = buf.Data, k
	}
	syrkView(uplo, alpha, ad, lda, n, k, c.Data, c.Cols)
}

// syrkView accumulates C(triangle) += alpha · A·Aᵀ over the dense row-major
// view ad/lda holding n rows of depth k, writing only the uplo triangle of
// cdata/ldc (beta and transposes have been handled by the caller). Also the
// trailing-update kernel of the blocked Cholesky.
func syrkView(uplo Uplo, alpha float64, ad []float64, lda, n, k int, cdata []float64, ldc int) {
	for j0 := 0; j0 < n; j0 += syrkBlock {
		j1 := j0 + syrkBlock
		if j1 > n {
			j1 = n
		}
		// Off-diagonal panel: a plain GEMM block C[rows][j0:j1] +=
		// alpha·A[rows]·A[j0:j1]ᵀ through the blocked kernel.
		rows := opView{data: ad[j0*lda:], ld: lda, trans: true}
		if uplo == Lower && j1 < n {
			gemmView(alpha,
				opView{data: ad[j1*lda:], ld: lda},
				rows,
				n-j1, j1-j0, k, cdata[j1*ldc+j0:], ldc)
		}
		if uplo == Upper && j0 > 0 {
			gemmView(alpha,
				opView{data: ad, ld: lda},
				rows,
				j0, j1-j0, k, cdata[j0:], ldc)
		}
		// Diagonal block: the full bw×bw square through the microkernel into
		// a zeroed scratch block, then only the triangle folds into C.
		bw := j1 - j0
		buf := getPack(bw * bw)
		s := buf.Data
		for i := range s {
			s[i] = 0
		}
		gemmView(alpha,
			opView{data: ad[j0*lda:], ld: lda},
			rows,
			bw, bw, k, s, bw)
		for i := 0; i < bw; i++ {
			crow := cdata[(j0+i)*ldc : (j0+i)*ldc+n]
			srow := s[i*bw : i*bw+bw]
			if uplo == Lower {
				for j := 0; j <= i; j++ {
					crow[j0+j] += srow[j]
				}
			} else {
				for j := i; j < bw; j++ {
					crow[j0+j] += srow[j]
				}
			}
		}
		putPack(buf)
	}
}

// Trsm solves a triangular system in place:
//
//	side == Left:  op(A) · X = alpha·B,  X overwrites B
//	side == Right: X · op(A) = alpha·B,  X overwrites B
//
// where A is triangular per uplo/diag. This is the panel-solve kernel: LU
// uses (Left, Lower, NoTrans, Unit) for row panels and (Right, Upper,
// NoTrans, NonUnit) for column panels; Cholesky uses (Right, Lower, TransT,
// NonUnit). Every tile is solved by recursive halving (trsm_blocked.go):
// vectorised substitution runs only on diagonal blocks of at most trsmNB rows
// (a tile that small is one such block), scaling by the reciprocal of the
// diagonal, and the remaining O(n²·rhs) work is GEMM. With alpha == 0, B is
// zero-filled and returned without reading A (matching Gemm's beta == 0
// contract).
func Trsm(side Side, uplo Uplo, trans Trans, diag Diag, alpha float64, a, b *Tile) {
	if a.Rows != a.Cols {
		panic("tile: Trsm needs a square triangular tile")
	}
	n := a.Rows
	if (side == Left && b.Rows != n) || (side == Right && b.Cols != n) {
		panic(fmt.Sprintf("tile: Trsm shape mismatch: A=%dx%d B=%dx%d side=%d",
			a.Rows, a.Cols, b.Rows, b.Cols, side))
	}
	if alpha == 0 {
		b.Zero()
		return
	}
	if alpha != 1 {
		for i := range b.Data {
			b.Data[i] *= alpha
		}
	}
	effUplo := uplo
	if trans == TransT {
		effUplo = uplo.flipped()
	}
	trsmBlockedView(side, effUplo, diag, opView{data: a.Data, ld: a.Cols, trans: trans == TransT},
		n, b.Data, b.Cols, b.Rows, b.Cols)
}
