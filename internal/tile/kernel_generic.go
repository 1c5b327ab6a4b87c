//go:build !amd64

package tile

// The one generic microkernel: 2×4 keeps all eight accumulators in registers
// on any 16-register FP architecture.
var microKernels = []microKernel{
	{name: "scalar 2x4", mr: 2, nr: 4, supported: true, run: microScalar2x4},
}

// No vector helpers off amd64: a substitution row and a transpose are the
// plain loops.
func solveRow(y, a, x []float64, ldx int, s float64) { solveRowScalar(y, a, x, ldx, s) }

func transposeVec(dst []float64, ldd int, src []float64, lds, rows, cols int) (r4, c4 int) {
	return 0, 0
}

func dealRow(dst []float64, stride int, row []float64, w, ld int) {
	dealRowScalar(dst, stride, row, w)
}

// microTileMax is the largest mr·nr in the table: the size of the packed
// GEMM's edge-tile scratch block.
const microTileMax = 2 * 4

// microScalar2x4 applies one 2×4 register-tiled block update over packed
// strips ap (2-interleaved) and bp (4-interleaved): eight independent
// multiply-add chains, enough ILP to saturate a scalar FPU.
func microScalar2x4(ap, bp []float64, kb int, alpha float64, c []float64, ldc int) {
	var c00, c01, c02, c03, c10, c11, c12, c13 float64
	for l := 0; l < kb; l++ {
		as := ap[l*2 : l*2+2 : l*2+2]
		bs := bp[l*4 : l*4+4 : l*4+4]
		a0, a1 := as[0], as[1]
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
