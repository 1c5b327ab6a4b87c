package tile

// Cache blocking parameters of the panel-blocked GEMM. One packed B panel is
// gemmKC×n (streamed once per k-panel), one packed A panel is gemmMC×gemmKC
// and stays L2-resident while the microkernel sweeps the B panel. The
// microkernel tile itself is micro.mr×micro.nr — the shape of the kernel
// selected at start-up, see microKernel — and accumulates in registers over
// the full panel depth.
const (
	gemmMC = 64  // rows of op(A) per packed panel; a multiple of every kernel's mr
	gemmKC = 240 // panel depth shared by the packed A and B panels
)

// gemmSmallVolume: below this m·n·k volume the packing overhead outweighs the
// microkernel's throughput and the direct loops win (the distributed tests
// run tiles as small as 4×4). One constant for every kernel: on square b×b×b
// updates the packed path takes over between b=12 and b=16 under the 4×8 and
// the 8×16 kernel alike (b=8: 0.53 µs direct against 0.38 / 0.82 µs packed;
// b=12: 1.6 against 1.7 / 1.2; b=16: 3.6 against 0.8 / 0.6; b=24: 11.5
// against 2.0 / 2.6 — a tile narrower than the kernel is all edge).
const gemmSmallVolume = 16 * 16 * 16

// microKernel is one register-tiled block update of the packed GEMM,
// C[0:mr][0:nr] += alpha · Σ_l ap[l·mr+r] · bp[l·nr+c] over depth kb, where C
// starts at c[0] with leading dimension ldc. ap is an mr-interleaved packed A
// strip, bp an nr-interleaved packed B strip (packStrips). Each
// architecture lists its kernels in microKernels (kernel_*.go), widest first.
type microKernel struct {
	name      string
	mr, nr    int
	run       func(ap, bp []float64, kb int, alpha float64, c []float64, ldc int)
	supported bool // by this CPU and OS, probed once at start-up
	vector    bool // the CPU also runs the vector helpers beside it (solveRow, transposeVec)
}

// micro is the kernel every packed GEMM runs: the first supported entry of
// microKernels. It is a function of the CPU alone and is assigned once, here;
// the tests reassign it to run every supported kernel on the same box.
var micro = widestMicroKernel()

func widestMicroKernel() microKernel {
	for _, k := range microKernels {
		if k.supported {
			return k
		}
	}
	panic("tile: no supported microkernel") // every table ends in a scalar entry
}

// MicroKernelName identifies the GEMM microkernel selected at start-up, for
// benchmark metadata: results are only comparable across boxes that ran the
// same kernel.
func MicroKernelName() string { return micro.name }

// opView is a read-only view of op(X) for a row-major operand X: plain
// (i,j) ↦ data[i*ld+j] access, or the transposed view (i,j) ↦ data[j*ld+i].
// Offsetting data lets SYRK carve sub-panels out of one operand.
type opView struct {
	data  []float64
	ld    int
	trans bool
}

// at returns the offset of op(X)[i][j] in the view's data.
func (v opView) at(i, j int) int {
	if v.trans {
		return j*v.ld + i
	}
	return i*v.ld + j
}

// sub returns the view of op(X)[i:, j:].
func (v opView) sub(i, j int) opView {
	return opView{data: v.data[v.at(i, j):], ld: v.ld, trans: v.trans}
}

// transposed returns the view of op(X)ᵀ.
func (v opView) transposed() opView {
	return opView{data: v.data, ld: v.ld, trans: !v.trans}
}

// packPool recycles pack/transpose scratch through the shape-keyed tile pool
// the communication layer also uses. Buffers are 1×n tiles, so each distinct
// scratch size keeps its own free list and concurrent kernel workers draw
// disjoint buffers instead of fighting over one shared growable slice.
var packPool Pool

// getPack returns an n-element scratch buffer as a pooled 1×n tile; contents
// are unspecified. Release with putPack.
func getPack(n int) *Tile { return packPool.Get(1, n) }

func putPack(t *Tile) { packPool.Put(t) }

// packStrips writes rows [i0, i0+cnt) × depth [kk, kk+kb) of op(X) into dst
// as w-row strips interleaved by depth: strip s holds rows i0+s·w ..,
// dst[s·w·kb + l·w + r] = op(X)[i0+s·w+r][kk+l], zero-padded to full strips so
// the microkernel never reads past the matrix edge. With w = mr this is the
// packed A panel; the packed B panel (nr-column strips of op(B), interleaved
// by depth) is the same layout of op(B)ᵀ's rows, so gemmView packs both here.
//
// Either way the source is read the way it lies in memory, whole rows of X
// front to back, and on amd64 the rows a later step reads are asked for ahead
// of it (transposeBlocks, dealRuns): a kernel inside a factorization finds its
// operand tiles in no cache, and rows a leading dimension apart are a stride
// the hardware prefetcher does not follow. The strided side of the
// transposition is the packed panel, which is being written and stays
// cache-resident for the sweep.
func packStrips(dst []float64, x opView, i0, cnt, kk, kb, w int) {
	if x.trans {
		packDepthRows(dst, x.data[kk*x.ld+i0:], x.ld, cnt, kb, w)
		return
	}
	for ; cnt > 0; i0, cnt = i0+w, cnt-w {
		strip := dst[:kb*w]
		dst = dst[kb*w:]
		rows := min(cnt, w)
		// op(X) rows are X's rows, contiguous along the depth: the strip is
		// their transpose.
		transposeInto(strip, w, x.data[i0*x.ld+kk:], x.ld, rows, kb)
		if rows < w {
			for l := 0; l < kb; l++ {
				clear(strip[l*w+rows : l*w+w])
			}
		}
	}
}

// packDepthRows is packStrips where op(X)'s rows run down the columns of X,
// so depth step l of every strip lies in one row of X: src[l·ld : l·ld+cnt].
// Each such row is read once, front to back, and dealt out w elements to a
// strip; walked strip by strip, the same bytes are runs of w elements a whole
// row of X apart.
func packDepthRows(dst, src []float64, ld, cnt, kb, w int) {
	full := cnt / w * w
	for l := 0; l < kb; l++ {
		row := src[l*ld : l*ld+cnt]
		dealRow(dst[l*w:], kb*w, row[:full], w, ld)
		if rem := row[full:]; len(rem) > 0 {
			d := dst[full*kb+l*w:][:w]
			clear(d[copy(d, rem):])
		}
	}
}

// dealRowScalar writes dst[s·stride + r] = row[s·w + r] for every whole run of
// w elements in row: one depth step of every full strip of a packed panel.
func dealRowScalar(dst []float64, stride int, row []float64, w int) {
	for s := 0; s*w < len(row); s++ {
		d, run := dst[s*stride:][:w], row[s*w:][:w]
		for r, v := range run { // w is 2 to 8 here: shorter than a copy call
			d[r] = v
		}
	}
}

// gemmView computes C[0:m][0:n] += alpha · op(A) · op(B) over packed panels,
// where C is the row-major block cdata with leading dimension ldc. All four
// transpose combinations route through here; the packing stage absorbs the
// layout differences so one microkernel serves them all.
//
// The sweep is sequential on the calling goroutine, like a Chameleon kernel
// on its StarPU worker: a run's parallelism is its P × Workers kernel
// callers, and a kernel never adds to it.
func gemmView(alpha float64, a, b opView, m, n, k int, cdata []float64, ldc int) {
	mk := &micro
	nStrips := (n + mk.nr - 1) / mk.nr
	bp := getPack(gemmKC * nStrips * mk.nr)
	defer putPack(bp)
	ap := getPack(gemmMC * gemmKC)
	defer putPack(ap)
	for kk := 0; kk < k; kk += gemmKC {
		kb := k - kk
		if kb > gemmKC {
			kb = gemmKC
		}
		packStrips(bp.Data, b.transposed(), 0, n, kk, kb, mk.nr)
		for ii := 0; ii < m; ii += gemmMC {
			ib := m - ii
			if ib > gemmMC {
				ib = gemmMC
			}
			packStrips(ap.Data, a, ii, ib, kk, kb, mk.mr)
			gemmPanelSweep(mk, alpha, ap.Data, bp.Data, ii, ib, kb, n, cdata, ldc)
		}
	}
}

// gemmPanelSweep runs the microkernel over one packed A panel (rows
// [ii, ii+ib), depth kb) against the full packed B panel, accumulating into
// C rows [ii, ii+ib).
func gemmPanelSweep(mk *microKernel, alpha float64, ap, bp []float64, ii, ib, kb, n int, cdata []float64, ldc int) {
	mr, nr := mk.mr, mk.nr
	for i0 := 0; i0 < ib; i0 += mr {
		rows := ib - i0
		if rows > mr {
			rows = mr
		}
		aps := ap[i0*kb:]
		for j0 := 0; j0 < n; j0 += nr {
			cols := n - j0
			if cols > nr {
				cols = nr
			}
			bps := bp[j0*kb:]
			if rows == mr && cols == nr {
				mk.run(aps, bps, kb, alpha, cdata[(ii+i0)*ldc+j0:], ldc)
				continue
			}
			// Edge tile: the kernel updates a full mr×nr scratch copy of the
			// in-bounds part of C, which is then stored back — the same
			// operations on every element as an interior tile's, so a C
			// element's bits do not depend on which kernel shape made it an
			// edge.
			var scratch [microTileMax]float64
			for r := 0; r < rows; r++ {
				copy(scratch[r*nr:r*nr+cols], cdata[(ii+i0+r)*ldc+j0:])
			}
			mk.run(aps, bps, kb, alpha, scratch[:], nr)
			for r := 0; r < rows; r++ {
				copy(cdata[(ii+i0+r)*ldc+j0:(ii+i0+r)*ldc+j0+cols], scratch[r*nr:])
			}
		}
	}
}

// transposeInto writes the transpose of the rows×cols row-major block src
// (leading dimension lds) into dst (leading dimension ldd):
// dst[c·ldd+r] = src[r·lds+c].
func transposeInto(dst []float64, ldd int, src []float64, lds, rows, cols int) {
	r4, c4 := transposeVec(dst, ldd, src, lds, rows, cols)
	for r := 0; r < rows; r++ {
		c := 0
		if r < r4 {
			c = c4
		}
		for ; c < cols; c++ {
			dst[c*ldd+r] = src[r*lds+c]
		}
	}
}
