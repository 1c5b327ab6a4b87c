//go:build !amd64

package tile

// Off amd64 the table is the one scalar 2×4 kernel every architecture shares
// (kernel_scalar.go).
var microKernels = []microKernel{
	{name: "scalar 2x4", mr: 2, nr: 4, supported: true},
}

// run calls the one kernel (see the amd64 run for why this is a method).
func (k *microKernel) run(a []float64, rsA, csA int, b []float64, ldb, kb int, alpha float64, c []float64, ldc int) {
	microScalar2x4(a, rsA, csA, b, ldb, kb, alpha, c, ldc)
}

// No vector helpers off amd64: a substitution row, a transpose, the fill and
// the sum of squares are the plain loops.
func solveRow(y, a, x []float64, ldx int, s float64) { solveRowScalar(y, a, x, ldx, s) }

func transposeVec(dst []float64, ldd int, src []float64, lds, rows, cols int) (r4, c4 int) {
	return 0, 0
}

func dealRow(dst []float64, stride int, row []float64, w, ld int) {
	dealRowScalar(dst, stride, row, w)
}

func fillUniform(dst []float64, key uint64) { fillUniformGo(dst, key) }

func sumSquares(x []float64) float64 { return sumSquaresGo(x) }

// microMRMax and microNRMax are the largest mr and nr in the table: they
// size the GEMM's edge-tile scratch block and the in-place path's buffers.
const microMRMax, microNRMax = 2, 4
