package tile

// Blocked triangular solve by recursive halving. The triangle is split in
// two, one half is solved, its contribution to the other half's right-hand
// side is one GEMM through gemmView, and the other half is solved —
// so a solved panel of X is packed O(log(n/nb)) times on the way up instead
// of once per nb-wide step as in a left-looking sweep, and every GEMM is as
// large as the split allows. Halves of at most trsmNB rows are solved by
// substitution one row at a time (solveRow): the row sits in vector
// registers while the sum over the rows already solved streams by.
//
// Only the left side has a driver. X·E = B is Eᵀ·Xᵀ = Bᵀ, so the right side
// transposes B into a pooled scratch block, solves from the left against the
// transposed view of the triangle (which costs nothing: opView carries the
// flag into the packing) and transposes back — the rows the substitution
// vectorises over are then B's long columns.

// trsmNB bounds the diagonal blocks solved by substitution: the recursion
// stops splitting here, small enough that the substitution's share (~nb/n of
// the flops, at about half the packed GEMM's rate) stays minor at the
// paper's tile sizes, large enough that the smallest GEMM still amortizes
// packing. A whole tile this small is one substitution.
const trsmNB = 24

// trsmBlockedView solves a triangular system in place over dense views:
//
//	side == Left:  E · X = B, E is n×n, B/X is brows×bcols with brows == n
//	side == Right: X · E = B, E is n×n, B/X is brows×bcols with bcols == n
//
// where E is the uplo triangle (diag per diag) of the view e — any transpose
// is folded into the view by the caller, flipping uplo — and B occupies the
// row-major view bd/ldb.
func trsmBlockedView(side Side, uplo Uplo, diag Diag, e opView, n int, bd []float64, ldb, brows, bcols int) {
	if side == Left {
		trsmLeft(uplo, diag, e, n, bd, ldb, bcols)
		return
	}
	buf := getPack(n * brows)
	defer putPack(buf)
	transposeInto(buf.Data, brows, bd, ldb, brows, n)
	trsmLeft(uplo.flipped(), diag, e.transposed(), n, buf.Data, brows, brows)
	transposeInto(bd, ldb, buf.Data, brows, n, brows)
}

// trsmLeft solves E·X = B in place for the n×n triangle E and the n×bcols
// block B at bd/ldb.
func trsmLeft(uplo Uplo, diag Diag, e opView, n int, bd []float64, ldb, bcols int) {
	if n <= trsmNB {
		trsmLeftRows(uplo, diag, e, n, bd, ldb, bcols)
		return
	}
	n1 := splitPoint(n)
	n2 := n - n1
	top, bottom := bd, bd[n1*ldb:]
	if uplo == Lower {
		// [E11 0; E21 E22]: X1 first, then B2 −= E21·X1.
		trsmLeft(uplo, diag, e, n1, top, ldb, bcols)
		gemmView(-1, e.sub(n1, 0), opView{data: top, ld: ldb}, n2, bcols, n1, bottom, ldb)
		trsmLeft(uplo, diag, e.sub(n1, n1), n2, bottom, ldb, bcols)
		return
	}
	// [E11 E12; 0 E22]: X2 first, then B1 −= E12·X2.
	trsmLeft(uplo, diag, e.sub(n1, n1), n2, bottom, ldb, bcols)
	gemmView(-1, e.sub(0, n1), opView{data: bottom, ld: ldb}, n1, bcols, n2, top, ldb)
	trsmLeft(uplo, diag, e, n1, top, ldb, bcols)
}

// trsmLeftRows is the substitution base of trsmLeft (n ≤ trsmNB): row i of X
// is row i of B minus E's row i against the rows already solved, scaled by
// the reciprocal of the diagonal.
func trsmLeftRows(uplo Uplo, diag Diag, e opView, n int, bd []float64, ldb, bcols int) {
	var gathered [trsmNB]float64
	for step := 0; step < n; step++ {
		// Row i depends on the solved rows [lo, hi).
		i, lo, hi := step, 0, step
		if uplo == Upper {
			i = n - 1 - step
			lo, hi = i+1, n
		}
		var coef []float64
		if e.trans {
			// E's row i runs down a column of the stored matrix.
			coef = gathered[:hi-lo]
			for l := range coef {
				coef[l] = e.data[(lo+l)*e.ld+i]
			}
		} else {
			coef = e.data[i*e.ld+lo : i*e.ld+hi]
		}
		s := 1.0
		if diag == NonUnit {
			s = 1 / e.data[e.at(i, i)]
		}
		solveRow(bd[i*ldb:i*ldb+bcols], coef, bd[lo*ldb:], ldb, s)
	}
}

// solveRowScalar is one row of a substitution in plain Go:
//
//	y = (y − Σ_l a[l] · x[l·ldx : l·ldx+len(y)]) · s
//
// solveRow (kernel_*.go) is this, vectorised where the CPU allows.
func solveRowScalar(y, a, x []float64, ldx int, s float64) {
	for l, f := range a {
		xl := x[l*ldx : l*ldx+len(y)]
		for j := range y {
			y[j] -= f * xl[j]
		}
	}
	if s != 1 {
		for j := range y {
			y[j] *= s
		}
	}
}
