//go:build !amd64

package tile

// The one generic microkernel: 2×4 keeps all eight accumulators in registers
// on any 16-register FP architecture.
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

// microScalar2x4 applies one 2×4 register-tiled block update over strided
// operands (see microKernel): eight independent multiply-add chains, enough
// ILP to saturate a scalar FPU.
func microScalar2x4(a []float64, rsA, csA int, b []float64, ldb, kb int, alpha float64, c []float64, ldc int) {
	var c00, c01, c02, c03, c10, c11, c12, c13 float64
	for l := 0; l < kb; l++ {
		bs := b[l*ldb : l*ldb+4 : l*ldb+4]
		a0, a1 := a[l*csA], a[rsA+l*csA]
		b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	r0 := c[0:4:4]
	r1 := c[ldc : ldc+4 : ldc+4]
	r0[0] += alpha * c00
	r0[1] += alpha * c01
	r0[2] += alpha * c02
	r0[3] += alpha * c03
	r1[0] += alpha * c10
	r1[1] += alpha * c11
	r1[2] += alpha * c12
	r1[3] += alpha * c13
}
