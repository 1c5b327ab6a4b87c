package tile

import "sync"

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

// gemmDirectMax bounds the updates gemmView runs on operands in place: m, n
// and k all at most this, so op(A), op(B) and C fit in a 32 KB L1 together
// and the kernel's strided reads hit it. It also sizes gemmDirect's stack
// buffers, which hold gemmDirectMax depth steps. Measured on square updates
// (DESIGN.md §6): in place is faster than packed up to b=32 and, hot, up to
// b=96, but a bound of 64 doubles the transposed-B buffer every small NT
// update clears, and at b=128 reading in place is no faster, cold or hot.
const gemmDirectMax = 32

// microKernel is one register-tiled block update of the GEMM,
// C[r][0:nr] += alpha · Σ_l a[r·rsA + l·csA] · b[l·ldb + 0:nr] for r < mr
// over depth kb, where C starts at c[0] with leading dimension ldc. Element
// (r, l) of op(A) is read at a[r·rsA + l·csA] and depth row l of op(B) at
// b[l·ldb], so one signature covers packed strips (packStrips: A rsA = 1,
// csA = mr; B ldb = nr), operands read where they lie (A rsA = ld, csA = 1,
// or transposed rsA = 1, csA = ld; B ldb = ld) and any mix of the two. Each
// architecture lists its kernels in microKernels (kernel_*.go), widest
// first, and its run method calls the routine kind names.
type microKernel struct {
	name      string
	kind      kernelKind
	mr, nr    int
	supported bool // by this CPU and OS, probed once at start-up
	vector    bool // the CPU also runs the vector helpers beside it (solveRow, transposeVec)
}

// kernelKind names a microkernel routine for run's dispatch.
type kernelKind uint8

// micro is the kernel the GEMM runs: the first supported entry of
// microKernels (directKernel may pick a narrower one with the same bits). It
// is a function of the CPU alone and is assigned once, here; the tests
// reassign it to run every supported kernel on the same box.
var micro = widestMicroKernel()

func widestMicroKernel() microKernel {
	for _, k := range microKernels {
		if k.supported {
			return k
		}
	}
	panic("tile: no supported microkernel") // every table ends in a scalar entry
}

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

// packPool recycles pack/transpose scratch: one sync.Pool of 1×n tiles per
// scratch size n, so each size keeps its own free list and concurrent kernel
// workers draw disjoint buffers instead of fighting over one shared growable
// slice.
var packPool sync.Map // uint64(n) -> *sync.Pool of *Tile

// getPack returns an n-element scratch buffer as a pooled 1×n tile; contents
// are unspecified. Release with putPack.
func getPack(n int) *Tile {
	if e, ok := packPool.Load(uint64(n)); ok {
		if t, ok := e.(*sync.Pool).Get().(*Tile); ok && t != nil {
			return t
		}
	}
	return New(1, n)
}

// putPack releases a getPack buffer; the caller must not use it afterwards.
func putPack(t *Tile) {
	// Load first: LoadOrStore's argument is built — allocated — on every
	// call, needed or not, and a size's free list is new only once.
	key := uint64(t.Cols)
	e, ok := packPool.Load(key)
	if !ok {
		e, _ = packPool.LoadOrStore(key, &sync.Pool{})
	}
	e.(*sync.Pool).Put(t)
}

// packStrips writes rows [i0, i0+cnt) × depth [kk, kk+kb) of op(X) into dst
// as w-row strips interleaved by depth: strip s holds rows i0+s·w ..,
// dst[s·w·kb + l·w + r] = op(X)[i0+s·w+r][kk+l], zero-padded to full strips so
// the microkernel never reads past the matrix edge. With w = mr this is the
// packed A panel; the packed B panel (nr-column strips of op(B), interleaved
// by depth) is the same layout of op(B)ᵀ's rows, so gemmPacked packs both
// here, and gemmDirect copies the strips and blocks it cannot read in place.
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

// gemmView computes C[0:m][0:n] += alpha · op(A) · op(B), where C is the
// row-major block cdata with leading dimension ldc; all four transpose
// combinations route through here. An update that fits in L1
// (gemmDirectMax) runs the microkernel on its operands where they lie
// (gemmDirect), a larger one on packed panels (gemmPacked). Both compute
// each C element as the same FMA chain over each depth panel, so the path
// never shows in the bits.
//
// The sweep is sequential on the calling goroutine, like a Chameleon kernel
// on its StarPU worker: a run's parallelism is its P × Workers kernel
// callers, and a kernel never adds to it.
func gemmView(alpha float64, a, b opView, m, n, k int, cdata []float64, ldc int) {
	if k == 0 {
		return
	}
	if m <= gemmDirectMax && n <= gemmDirectMax && k <= gemmDirectMax {
		gemmDirect(alpha, a, b, m, n, k, cdata, ldc)
		return
	}
	gemmPacked(alpha, a, b, m, n, k, cdata, ldc)
}

// gemmDirect is gemmView reading its operands in place: no pack buffers and
// no packPool traffic, for k ≤ gemmDirectMax. The kernel reads whole mr-row
// blocks of op(A) and whole nr-column strips of op(B), and past an operand's
// last row or column lies memory that is not its own, so three things are
// copied into zero-padded stack buffers first: a strip of op(B) narrower
// than nr, every strip of a transposed B (its depth rows are not
// contiguous), and the last block of op(A) when m is not a multiple of mr.
// Each buffer lives in the function that fills it (directCopiedStrips,
// directEdgeBlock, microEdge): Go zeroes a stack array where it is declared
// and sizes a frame for all of a function's arrays, and an update that
// copies nothing should pay for neither.
func gemmDirect(alpha float64, a, b opView, m, n, k int, cdata []float64, ldc int) {
	mk := directKernel(n)
	nr := mk.nr
	j0 := 0
	if !b.trans {
		for ; j0+nr <= n; j0 += nr {
			directStrip(mk, alpha, a, b.data[j0:], b.ld, m, k, cdata[j0:], ldc, nr)
		}
	}
	if j0 < n {
		directCopiedStrips(mk, alpha, a, b, j0, m, n, k, cdata, ldc)
	}
}

// directCopiedStrips is gemmDirect over columns [j0, n), each strip of op(B)
// copied into a buffer first.
func directCopiedStrips(mk *microKernel, alpha float64, a, b opView, j0, m, n, k int, cdata []float64, ldc int) {
	var strip [gemmDirectMax * microNRMax]float64
	nr := mk.nr
	for ; j0 < n; j0 += nr {
		cols := min(nr, n-j0)
		packStrips(strip[:], b.transposed(), j0, cols, 0, k, nr)
		directStrip(mk, alpha, a, strip[:], nr, m, k, cdata[j0:], ldc, cols)
	}
}

// directStrip runs mk down the cols-wide strip of C at c (cols ≤ nr) against
// the strip of op(B) at b/ldb, reading op(A) in place block by block.
func directStrip(mk *microKernel, alpha float64, a opView, b []float64, ldb, m, k int, c []float64, ldc, cols int) {
	mr := mk.mr
	rsA, csA := a.ld, 1
	if a.trans {
		rsA, csA = 1, a.ld
	}
	i0 := 0
	for ; i0+mr <= m; i0 += mr {
		microTile(mk, a.data[a.at(i0, 0):], rsA, csA, b, ldb, k, alpha, c[i0*ldc:], ldc, mr, cols)
	}
	if i0 < m {
		directEdgeBlock(mk, alpha, a, i0, m, b, ldb, k, c[i0*ldc:], ldc, cols)
	}
}

// directEdgeBlock is directStrip's last m−i0 < mr rows, op(A)'s copied into
// a zero-padded block first.
func directEdgeBlock(mk *microKernel, alpha float64, a opView, i0, m int, b []float64, ldb, k int, c []float64, ldc, cols int) {
	var edge [microMRMax * gemmDirectMax]float64
	packStrips(edge[:], a, i0, m-i0, 0, k, mk.mr)
	microTile(mk, edge[:], 1, mk.mr, b, ldb, k, alpha, c, ldc, m-i0, cols)
}

// directKernel is the kernel gemmDirect runs on an n-column update: micro,
// or for C narrower than micro's strips the narrowest kernel of the table
// that computes micro's bits — on an AVX-512 CPU the AVX2 4×8 block, so an
// 8-column tile is whole blocks rather than one half-empty edge.
func directKernel(n int) *microKernel {
	if n < micro.nr {
		for i := len(microKernels) - 1; i >= 0; i-- {
			if k := &microKernels[i]; k.supported && k.vector == micro.vector {
				return k
			}
		}
	}
	return &micro
}

// gemmPacked is gemmView over packed panels: for each gemmKC-deep panel, all
// of op(B) is packed into nr-column strips, then op(A) gemmMC rows at a time
// into mr-row strips that the microkernel sweeps against it.
func gemmPacked(alpha float64, a, b opView, m, n, k int, cdata []float64, ldc int) {
	mk := &micro
	nStrips := (n + mk.nr - 1) / mk.nr
	bp := getPack(gemmKC * nStrips * mk.nr)
	defer putPack(bp)
	ap := getPack(gemmMC * gemmKC)
	defer putPack(ap)
	for kk := 0; kk < k; kk += gemmKC {
		kb := min(gemmKC, k-kk)
		packStrips(bp.Data, b.transposed(), 0, n, kk, kb, mk.nr)
		for ii := 0; ii < m; ii += gemmMC {
			ib := min(gemmMC, m-ii)
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
		for j0 := 0; j0 < n; j0 += nr {
			microTile(mk, ap[i0*kb:], 1, mr, bp[j0*kb:], nr, kb, alpha, cdata[(ii+i0)*ldc+j0:], ldc, min(mr, ib-i0), min(nr, n-j0))
		}
	}
}

// microTile runs mk on the rows×cols block of C at c, rows ≤ mr and
// cols ≤ nr, with the kernel's operand arguments.
func microTile(mk *microKernel, a []float64, rsA, csA int, b []float64, ldb, kb int, alpha float64, c []float64, ldc, rows, cols int) {
	if rows == mk.mr && cols == mk.nr {
		mk.run(a, rsA, csA, b, ldb, kb, alpha, c, ldc)
		return
	}
	microEdge(mk, a, rsA, csA, b, ldb, kb, alpha, c, ldc, rows, cols)
}

// microEdge is microTile on a block short of the kernel's shape: the kernel
// updates a full mr×nr scratch copy of the block's in-bounds part of C,
// which is then stored back — the same operations on every element as an
// interior block's, so a C element's bits do not depend on which kernel
// shape made it an edge.
func microEdge(mk *microKernel, a []float64, rsA, csA int, b []float64, ldb, kb int, alpha float64, c []float64, ldc, rows, cols int) {
	var scratch [microMRMax * microNRMax]float64
	nr := mk.nr
	for r := 0; r < rows; r++ {
		copy(scratch[r*nr:r*nr+cols], c[r*ldc:])
	}
	mk.run(a, rsA, csA, b, ldb, kb, alpha, scratch[:], nr)
	for r := 0; r < rows; r++ {
		copy(c[r*ldc:r*ldc+cols], scratch[r*nr:])
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
