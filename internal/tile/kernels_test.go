package tile

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// testKernels returns the entries of microKernels this CPU runs, so a golden
// can hold every one of them to the same reference — the kernels dispatch
// passed over on this box (the AVX2 block on an AVX-512 CPU, the scalar
// block everywhere) as well as the one it chose. The caller assigns each to
// micro in turn; the start-up selection is restored when the test ends. An
// entry the CPU cannot run is skipped with a log line naming it.
func testKernels(t *testing.T) []microKernel {
	t.Helper()
	was := micro
	t.Cleanup(func() { micro = was })
	var run []microKernel
	for _, k := range microKernels {
		if k.supported {
			run = append(run, k)
		} else {
			t.Logf("skipping the %s kernel: this CPU does not run it", k.name)
		}
	}
	return run
}

// TestMicroKernelProbe: start-up selected the first table entry the CPU
// supports, the table is ordered widest first, and it ends in a scalar block
// that runs anywhere.
func TestMicroKernelProbe(t *testing.T) {
	last := microKernels[len(microKernels)-1]
	if !last.supported || last.vector {
		t.Fatalf("the table must end in a scalar kernel every CPU runs, got %+v", last.name)
	}
	for i, k := range microKernels {
		if gemmMC%k.mr != 0 || k.mr > microMRMax || k.nr > microNRMax {
			t.Errorf("%s: %d×%d does not fit gemmMC=%d / microMRMax×microNRMax=%d×%d", k.name, k.mr, k.nr, gemmMC, microMRMax, microNRMax)
		}
		if i > 0 && k.mr*k.nr > microKernels[i-1].mr*microKernels[i-1].nr {
			t.Errorf("%s is wider than %s before it", k.name, microKernels[i-1].name)
		}
	}
	if got, want := micro.name, widestMicroKernel().name; got != want {
		t.Fatalf("selected microkernel %q, the widest supported entry is %q", got, want)
	}
	t.Logf("selected microkernel: %s", micro.name)
	t.Logf("in-place path: updates with m, n, k ≤ %d read their operands in place (b=8 under %s, b=32 under %s), larger ones are packed",
		gemmDirectMax, directKernel(8).name, directKernel(32).name)
}

// packSizesDrawn empties packPool and returns a func that counts the scratch
// sizes drawn from it since. Every getPack is paired with a putPack, which
// files the buffer under its size, so a path that draws no buffer leaves the
// pool empty.
func packSizesDrawn() func() int {
	packPool.Range(func(k, _ any) bool {
		packPool.Delete(k)
		return true
	})
	return func() (n int) {
		packPool.Range(func(_, _ any) bool {
			n++
			return true
		})
		return n
	}
}

// TestSmallGemmAllocatesNothing: an update the in-place path takes needs no
// heap — its buffers are on the stack and nothing is drawn from packPool —
// for LU's NN update and Cholesky's NT update at the two small tile sizes the
// benchmark runs, under each kernel this CPU runs.
func TestSmallGemmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, mk := range testKernels(t) {
		micro = mk
		for _, b := range []int{8, 32} {
			x, y, z := randomTile(rng, b, b), randomTile(rng, b, b), randomTile(rng, b, b)
			for _, tb := range []Trans{NoTrans, TransT} {
				drawn := packSizesDrawn()
				if allocs := testing.AllocsPerRun(100, func() { Gemm(NoTrans, tb, -1e-3, x, y, 1, z) }); allocs != 0 {
					t.Errorf("[%s] Gemm(NoTrans, %v) at b=%d: %g allocations per call", mk.name, tb, b, allocs)
				}
				if n := drawn(); n != 0 {
					t.Errorf("[%s] Gemm(NoTrans, %v) at b=%d: drew pack buffers of %d sizes", mk.name, tb, b, n)
				}
			}
		}
	}
}

// TestMicroKernelsBitIdentical: every path of the GEMM core computes a C
// element by the same operations in the same order — one FMA chain over each
// depth panel, one FMA folding alpha in, edge blocks through the same kernel
// on a scratch copy — so under one kernel, reading the operands in place
// (gemmDirect, wherever k allows it) and packing them (gemmPacked) must give
// Gemm's bits exactly, and the assembly kernels, whatever their register
// shape, must give each other's. For m·n·k ≥ 4096 the vector kernels' bits
// are also pinned to the packed path's before the in-place path existed
// (parentDigests); below that, Gemm used to round each product and sum
// separately and no longer does.
func TestMicroKernelsBitIdentical(t *testing.T) {
	kernels := testKernels(t)
	for _, s := range bitShapes {
		m, n, k := s[0], s[1], s[2]
		digests := make([]hash.Hash64, len(kernels))
		for i := range digests {
			digests[i] = fnv.New64a()
		}
		for _, ta := range []Trans{NoTrans, TransT} {
			for _, tb := range []Trans{NoTrans, TransT} {
				a, b, c0 := gemmCase(m, n, k, ta, tb)
				for _, coef := range gemmCoefs {
					alpha, beta := coef[0], coef[1]
					var vector *Tile // the first vector kernel's output
					var vectorName string
					for i, mk := range kernels {
						micro = mk
						got := c0.Clone()
						Gemm(ta, tb, alpha, a, b, beta, got)
						hashBits(digests[i], got)
						same := func(other string, want *Tile) {
							t.Helper()
							for e, v := range got.Data {
								if math.Float64bits(v) != math.Float64bits(want.Data[e]) {
									t.Fatalf("[%s] Gemm(%v,%v) m=%d n=%d k=%d alpha=%g beta=%g: element (%d,%d) is %x, %s gives %x",
										mk.name, ta, tb, m, n, k, alpha, beta, e/n, e%n, v, other, want.Data[e])
								}
							}
						}
						same("the packed path", gemmBy(gemmPacked, ta, tb, alpha, a, b, beta, c0))
						if k <= gemmDirectMax {
							same("the in-place path", gemmBy(gemmDirect, ta, tb, alpha, a, b, beta, c0))
						}
						if mk.vector {
							if vector == nil {
								vector, vectorName = got, mk.name
							}
							same(vectorName, vector)
						}
					}
				}
			}
		}
		want, pinned := parentDigests[s]
		if m*n*k >= 4096 && !pinned {
			t.Fatalf("%v has no parent digest", s)
		}
		for i, mk := range kernels {
			if got := digests[i].Sum64(); pinned && mk.vector && got != want {
				t.Errorf("[%s] %dx%dx%d: digest %#016x, the packed path's before the in-place path read %#016x", mk.name, m, n, k, got, want)
			}
		}
	}
}

// gemmBy returns a copy of c after Gemm with gemmView's choice of path made
// by the caller: path is gemmPacked or gemmDirect.
func gemmBy(path func(float64, opView, opView, int, int, int, []float64, int), ta, tb Trans, alpha float64, a, b *Tile, beta float64, c *Tile) *Tile {
	c = c.Clone()
	Gemm(ta, tb, 0, a, b, beta, c) // beta's scaling and nothing else
	m, k := opDims(ta, a)
	_, n := opDims(tb, b)
	path(alpha, opView{data: a.Data, ld: a.Cols, trans: ta == TransT}, opView{data: b.Data, ld: b.Cols, trans: tb == TransT}, m, n, k, c.Data, c.Cols)
	return c
}

// parentDigests: hashBits of every Gemm output of a bitShapes case with
// m·n·k ≥ 4096 — four transpose pairs times gemmCoefs — computed by the
// packed path under the AVX-512 kernel before the in-place path was added.
var parentDigests = map[[3]int]uint64{
	{16, 16, 16}:    0x5a54bb1c5df824d2,
	{32, 32, 32}:    0xa57786ee367f3f98,
	{33, 31, 17}:    0x4171627016f5fa5c,
	{64, 64, 64}:    0x35e0f2293171b089,
	{16, 32, 16}:    0xa6a7c36f65137e33,
	{24, 24, 24}:    0x7d7c1bfd5fb67905,
	{33, 17, 29}:    0x1b65e43d60ecb971,
	{64, 16, 240}:   0x6038e5722d685565,
	{65, 17, 241}:   0x3f2872f3a30f9801,
	{67, 45, 251}:   0x88d0e65c8d969869,
	{130, 257, 65}:  0x28ac57b20681d2b2,
	{7, 300, 300}:   0x97f17004d5ed5e42,
	{300, 9, 481}:   0x0fbfbdd55a9ab903,
	{256, 256, 256}: 0x188ce3d55c787394,
}

// bitShapes are the Gemm shapes TestMicroKernelsBitIdentical holds to one
// set of bits: square and ragged tiles the in-place path takes, and sizes
// that cross every mr/nr, gemmMC and gemmKC edge of the packed one.
// {16, 32, 16} is interior blocks only under either assembly kernel, so the
// last block's C prefetch — no part of the arithmetic — starts on the last
// rows of its tile.
var bitShapes = [][3]int{
	{4, 4, 4}, {8, 8, 1}, {8, 8, 8}, {5, 9, 3}, {16, 16, 16}, {32, 32, 32}, {33, 31, 17}, {64, 64, 64},
	{16, 32, 16}, {24, 24, 24}, {33, 17, 29}, {64, 16, 240}, {65, 17, 241},
	{67, 45, 251}, {130, 257, 65}, {7, 300, 300}, {300, 9, 481}, {256, 256, 256},
}

// gemmCase returns the operands of the m×n×k Gemm(ta, tb) case, drawn from a
// generator seeded by the case alone, so its values are the same whichever
// cases ran before it — and in whichever tree.
func gemmCase(m, n, k int, ta, tb Trans) (a, b, c *Tile) {
	rng := rand.New(rand.NewSource(int64(m)<<40 | int64(n)<<20 | int64(k)<<2 | int64(ta)<<1 | int64(tb)))
	ar, ac, br, bc := m, k, k, n
	if ta == TransT {
		ar, ac = k, m
	}
	if tb == TransT {
		br, bc = n, k
	}
	return randomTile(rng, ar, ac), randomTile(rng, br, bc), randomTile(rng, m, n)
}

// gemmCoefs are the (alpha, beta) pairs every case runs with.
var gemmCoefs = [][2]float64{{-1, 1}, {1.25, 0.75}, {0.3, 0}}

// hashBits folds the bits of t's elements into h.
func hashBits(h hash.Hash64, t *Tile) {
	var buf [8]byte
	for _, v := range t.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestPackStripsLayout holds packStrips to its documented layout,
// dst[s·w·kb + l·w + r] = op(X)[i0+s·w+r][kk+l] with zero padding up to full
// strips, for both orientations of X and every strip width a kernel of the
// table packs to — under each kernel this CPU runs, since the vector helpers
// behind the two traversals are chosen by it. X is a window of a wider matrix
// (ld > its columns, the way SYRK carves sub-panels), the row range starts
// off zero and ends ragged, the depth range is a partial panel off zero.
func TestPackStripsLayout(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(33))
	const ld, i0, kk = 83, 3, 5
	x := randomTile(rng, 80, ld)
	for _, shape := range microKernels {
		for _, w := range []int{shape.mr, shape.nr} {
			for _, cnt := range []int{1, w - 1, w, w + 1, 3*w + 5} {
				for _, kb := range []int{1, 7, 8, 21} {
					for _, trans := range []bool{false, true} {
						v := opView{data: x.Data, ld: ld, trans: trans}
						strips := (cnt + w - 1) / w
						for _, mk := range kernels {
							micro = mk
							// One guard element on each side, poisoned like
							// the buffer: packStrips writes every element of
							// its strips and nothing else.
							buf := make([]float64, strips*w*kb+2)
							for i := range buf {
								buf[i] = -7
							}
							packStrips(buf[1:len(buf)-1], v, i0, cnt, kk, kb, w)
							if buf[0] != -7 || buf[len(buf)-1] != -7 {
								t.Fatalf("[%s] w=%d cnt=%d kb=%d trans=%v: wrote outside the strips", mk.name, w, cnt, kb, trans)
							}
							dst := buf[1:]
							for s := 0; s < strips; s++ {
								for l := 0; l < kb; l++ {
									for r := 0; r < w; r++ {
										want := 0.0
										if s*w+r < cnt {
											want = x.Data[v.at(i0+s*w+r, kk+l)]
										}
										if got := dst[s*w*kb+l*w+r]; got != want {
											t.Fatalf("[%s] w=%d cnt=%d kb=%d trans=%v: strip %d depth %d row %d is %g, want %g",
												mk.name, w, cnt, kb, trans, s, l, r, got, want)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorHelpers: transposeInto and solveRow — the two routines a vector
// microkernel brings an assembly version of — against their plain
// definitions, on extents around the 4- and 16-element steps of the assembly
// and with leading dimensions wider than the block.
func TestVectorHelpers(t *testing.T) {
	kernels := testKernels(t)
	rng := rand.New(rand.NewSource(32))
	extents := []int{1, 3, 4, 5, 8, 9, 16, 17, 23, 33}
	for _, rows := range extents {
		for _, cols := range extents {
			lds, ldd := cols+3, rows+2
			src := randomTile(rng, rows, lds)
			for _, mk := range kernels {
				micro = mk
				dst := New(cols, ldd)
				transposeInto(dst.Data, ldd, src.Data, lds, rows, cols)
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						if dst.At(c, r) != src.At(r, c) {
							t.Fatalf("[%s] transposeInto %dx%d: dst(%d,%d) = %g, src(%d,%d) = %g",
								mk.name, rows, cols, c, r, dst.At(c, r), r, c, src.At(r, c))
						}
					}
				}
				for c := 0; c < cols; c++ {
					for r := rows; r < ldd; r++ {
						if dst.At(c, r) != 0 {
							t.Fatalf("[%s] transposeInto %dx%d wrote outside the block at (%d,%d)", mk.name, rows, cols, c, r)
						}
					}
				}
			}
		}
	}
	for _, n := range extents {
		for _, k := range []int{0, 1, 7, 24} {
			ldx := n + 5
			x := randomTile(rng, k+1, ldx)
			a := randomTile(rng, 1, k+1).Data[:k]
			y0 := randomTile(rng, 1, n)
			want := y0.Clone()
			solveRowScalar(want.Data, a, x.Data, ldx, 0.75)
			for _, mk := range kernels {
				micro = mk
				y := y0.Clone()
				solveRow(y.Data, a, x.Data, ldx, 0.75)
				if d := maxAbsDiff(y, want); d > 1e-14*float64(k+1) {
					t.Fatalf("[%s] solveRow n=%d k=%d: max diff %g", mk.name, n, k, d)
				}
			}
		}
	}
}
