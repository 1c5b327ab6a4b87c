//go:build amd64

package tile

// The amd64 microkernels, widest first. The AVX-512 kernel holds an 8×16
// block of C in sixteen ZMM registers, the AVX2+FMA kernel a 4×8 block in
// eight YMM registers (both in kernel_amd64.s); CPUs with neither (or an OS
// that masks the vector state) run the scalar 2×4 block every architecture
// shares (kernel_scalar.go). Both assembly kernels compute every C element as
// one FMA chain over the depth in order and fold alpha in with one more FMA,
// so they produce identical bits; the scalar block does not, since at
// GOAMD64=v1/v2 it rounds each product and sum separately (at v3 the compiler
// may fuse them into FMAs).
var microKernels = []microKernel{
	{name: "avx512 8x16", kind: kernelAVX512, mr: 8, nr: 16, supported: cpuHasAVX512(avx512F) && cpuHasAVX2FMA(), vector: true},
	{name: "avx2+fma 4x8", kind: kernelAVX2, mr: 4, nr: 8, supported: cpuHasAVX2FMA(), vector: true},
	{name: "scalar 2x4", kind: kernelScalar, mr: 2, nr: 4, supported: true},
}

const (
	kernelAVX512 kernelKind = iota
	kernelAVX2
	kernelScalar
)

// run calls the kernel's routine on the mr×nr block of C at c. A switch and
// not a function value, so the compiler sees that no operand escapes: the
// in-place path's stack buffers stay on the stack.
func (k *microKernel) run(a []float64, rsA, csA int, b []float64, ldb, kb int, alpha float64, c []float64, ldc int) {
	switch k.kind {
	case kernelAVX512:
		fmaMicro8x16(&a[0], rsA, csA, &b[0], ldb, kb, alpha, &c[0], ldc)
	case kernelAVX2:
		fmaMicro4x8(&a[0], rsA, csA, &b[0], ldb, kb, alpha, &c[0], ldc)
	default:
		microScalar2x4(a, rsA, csA, b, ldb, kb, alpha, c, ldc)
	}
}

// microMRMax and microNRMax are the largest mr and nr in the table: they
// size the GEMM's edge-tile scratch block and the in-place path's buffers.
const microMRMax, microNRMax = 8, 16

// cpuHasAVX2FMA reports whether the CPU and OS support AVX2 and FMA3, by
// CPUID/XGETBV (implemented in kernel_amd64.s).
func cpuHasAVX2FMA() bool

// cpuHasAVX512 reports whether the CPU supports every AVX-512 feature whose
// CPUID leaf 7 EBX bit is set in ebx and the OS saves the opmask and ZMM
// state (XCR0 & 0xE6), by CPUID/XGETBV (implemented in kernel_amd64.s).
func cpuHasAVX512(ebx uint32) bool

// The leaf 7 EBX bits of the AVX-512 subsets the routines here use:
// Foundation for the microkernel and the sum of squares, DQ for the
// counter-hash fill's 64-bit multiply (VPMULLQ) and unsigned convert
// (VCVTUQQ2PD).
const (
	avx512F  = 1 << 16
	avx512DQ = 1 << 17
)

// hasAVX512DQ is probed once, beside the kernel table: the fill runs its
// AVX-512 routine when the AVX-512 microkernel is the one in use and the
// CPU also has DQ.
var hasAVX512DQ = cpuHasAVX512(avx512F | avx512DQ)

// fmaMicro4x8 computes C[r][0:8] += alpha·Σ_l a[r·rsA+l·csA]·b[l·ldb+0:8]
// for r = 0..3, where C starts at c with leading dimension ldc (all strides
// in elements). Implemented in kernel_amd64.s; requires AVX2+FMA and kb ≥ 0.
//
//go:noescape
func fmaMicro4x8(a *float64, rsA, csA int, b *float64, ldb, kb int, alpha float64, c *float64, ldc int)

// fmaMicro8x16 computes C[r][0:16] += alpha·Σ_l a[r·rsA+l·csA]·b[l·ldb+0:16]
// for r = 0..7. Implemented in kernel_amd64.s; requires AVX-512F and kb ≥ 0.
//
//go:noescape
func fmaMicro8x16(a *float64, rsA, csA int, b *float64, ldb, kb int, alpha float64, c *float64, ldc int)

// fmaSolveRow computes y[0:n] = (y[0:n] − Σ_{l<k} a[l]·x[l·ldx+0:n])·s for n
// a multiple of 4. Implemented in kernel_amd64.s; requires AVX2+FMA.
//
//go:noescape
func fmaSolveRow(y *float64, n int, a *float64, k int, x *float64, ldx int, s float64)

// transposeBlocks writes dst[c·ldd+r] = src[r·lds+c] for r < rows, c < cols,
// both multiples of 4, prefetching the source rows below the ones it reads.
// Implemented in kernel_amd64.s; requires AVX2.
//
//go:noescape
func transposeBlocks(dst *float64, ldd int, src *float64, lds int, rows, cols int)

// dealRuns writes dst[s·stride+r] = src[s·w+r] for s < n, r < w, prefetching
// src[ahead:] as it goes. Implemented in kernel_amd64.s; requires AVX2, w a
// positive multiple of 8 and n > 0.
//
//go:noescape
func dealRuns(dst *float64, stride int, src *float64, w, n, ahead int)

// fillUniform512 writes dst[c] = Uniform(key + c) for c < n. Implemented in
// kernel_amd64.s; requires AVX-512F+DQ and n > 0.
//
//go:noescape
func fillUniform512(dst *float64, n int, key uint64)

// sumSquares512 returns sumSquaresGo of the n elements at x, bit for bit.
// Implemented in kernel_amd64.s; requires AVX-512F and n > 0.
//
//go:noescape
func sumSquares512(x *float64, n int) float64

// fillUniform is FillUniform's body: the AVX-512 routine under the AVX-512
// microkernel on a CPU with DQ, the Go loop otherwise. An AVX2 variant was
// not written: nothing measured one.
func fillUniform(dst []float64, key uint64) {
	if micro.kind == kernelAVX512 && hasAVX512DQ && len(dst) > 0 {
		fillUniform512(&dst[0], len(dst), key)
		return
	}
	fillUniformGo(dst, key)
}

// sumSquares is the sixteen-lane Σ x[i]² (see sumSquaresGo): the AVX-512
// routine under the AVX-512 microkernel, the Go loop otherwise.
func sumSquares(x []float64) float64 {
	if micro.kind == kernelAVX512 && len(x) > 0 {
		return sumSquares512(&x[0], len(x))
	}
	return sumSquaresGo(x)
}

// solveRow is one row of a substitution (see solveRowScalar): the AVX2+FMA
// kernel takes the columns it can, four at a time, the Go loop the rest.
func solveRow(y, a, x []float64, ldx int, s float64) {
	n4 := 0
	if micro.vector && len(a) > 0 {
		if n4 = len(y) &^ 3; n4 > 0 {
			fmaSolveRow(&y[0], n4, &a[0], len(a), &x[0], ldx, s)
		}
	}
	if n4 < len(y) {
		solveRowScalar(y[n4:], a, x[n4:], ldx, s)
	}
}

// transposeVec transposes the leading part of src whose extents are
// multiples of 4 into dst with the AVX2 kernel and returns those extents;
// transposeInto finishes the fringe.
func transposeVec(dst []float64, ldd int, src []float64, lds, rows, cols int) (r4, c4 int) {
	if !micro.vector || rows < 4 || cols < 4 {
		return 0, 0
	}
	r4, c4 = rows&^3, cols&^3
	if ldd <= 16 {
		// Destination rows of at most two cache lines, back to back — a
		// packed strip: the block stays in L1 in whatever order it is
		// written, and one call streams each source row whole.
		transposeBlocks(&dst[0], ldd, &src[0], lds, r4, c4)
		return r4, c4
	}
	// A wide destination (the right-side TRSM's whole block): eight source
	// columns at a time, so each pass reads whole cache lines of src and runs
	// down eight rows of dst front to back instead of striding across all of
	// them.
	for c := 0; c < c4; c += 8 {
		transposeBlocks(&dst[c*ldd], ldd, &src[c], lds, r4, min(8, c4-c))
	}
	return r4, c4
}

// dealRow deals one source row out over the strips of a packed panel (see
// dealRowScalar): the AVX2 kernel at the widths the assembly kernels pack B
// to, asking ahead for the row packAhead depth steps on.
func dealRow(dst []float64, stride int, row []float64, w, ld int) {
	if n := len(row) / w; micro.vector && w%8 == 0 && n > 0 {
		dealRuns(&dst[0], stride, &row[0], w, n, packAhead*ld)
		return
	}
	dealRowScalar(dst, stride, row, w)
}

// packAhead is how many depth steps — rows of X, ld apart — dealRow asks
// ahead: far enough that a row dealt in tens of nanoseconds is requested a
// last-level-cache latency early (2 to 8 measure alike on the development box,
// 0 and 16 a third slower), near enough that a 240-step panel misses only on
// its first few rows.
const packAhead = 4
