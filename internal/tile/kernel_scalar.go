package tile

// microScalar2x4 applies one 2×4 register-tiled block update over strided
// operands (see microKernel): eight independent multiply-add chains, enough
// ILP to saturate a scalar FPU, all eight accumulators in registers on any
// 16-register FP architecture. It is the scalar entry of every
// architecture's kernel table.
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
