package tile

import (
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
		if gemmMC%k.mr != 0 || k.mr*k.nr > microTileMax {
			t.Errorf("%s: %d×%d does not fit gemmMC=%d / microTileMax=%d", k.name, k.mr, k.nr, gemmMC, microTileMax)
		}
		if i > 0 && k.mr*k.nr > microKernels[i-1].mr*microKernels[i-1].nr {
			t.Errorf("%s is wider than %s before it", k.name, microKernels[i-1].name)
		}
	}
	if got, want := MicroKernelName(), widestMicroKernel().name; got != want {
		t.Fatalf("MicroKernelName() = %q, the widest supported entry is %q", got, want)
	}
	t.Logf("selected microkernel: %s", MicroKernelName())
}

// TestMicroKernelsBitIdentical: the assembly kernels compute every C element
// by the same operations in the same order — one FMA chain over each depth
// panel, one FMA folding alpha in, edge tiles through the same kernel on a
// scratch copy — so whatever their register shape, Gemm must return the same
// bits under each. Sizes cross every mr/nr, gemmMC and gemmKC edge; the first
// is interior blocks only, so the last one's C prefetch — no part of those
// operations — starts on the last rows of its tile.
func TestMicroKernelsBitIdentical(t *testing.T) {
	var vector []microKernel
	for _, k := range testKernels(t) {
		if k.vector {
			vector = append(vector, k)
		}
	}
	if len(vector) < 2 {
		t.Skipf("needs two assembly kernels to compare, this CPU runs %d", len(vector))
	}

	rng := rand.New(rand.NewSource(31))
	shapes := [][3]int{
		{16, 32, 16}, {24, 24, 24}, {33, 17, 29}, {64, 16, 240}, {65, 17, 241},
		{67, 45, 251}, {130, 257, 65}, {7, 300, 300}, {300, 9, 481}, {256, 256, 256},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		for _, ta := range []Trans{NoTrans, TransT} {
			for _, tb := range []Trans{NoTrans, TransT} {
				for _, coef := range [][2]float64{{-1, 1}, {1.25, 0.75}, {0.3, 0}} {
					alpha, beta := coef[0], coef[1]
					a, b := New(m, k), New(k, n)
					if ta == TransT {
						a = New(k, m)
					}
					if tb == TransT {
						b = New(n, k)
					}
					a.Random(rng)
					b.Random(rng)
					c0 := New(m, n)
					c0.Random(rng)

					var first *Tile
					for _, mk := range vector {
						micro = mk
						c := c0.Clone()
						Gemm(ta, tb, alpha, a, b, beta, c)
						if first == nil {
							first = c
							continue
						}
						for i, v := range c.Data {
							if v != first.Data[i] {
								t.Fatalf("Gemm(%v,%v) m=%d n=%d k=%d alpha=%g beta=%g: element (%d,%d) is %x under %s, %x under %s",
									ta, tb, m, n, k, alpha, beta, i/n, i%n, v, mk.name, first.Data[i], vector[0].name)
							}
						}
					}
				}
			}
		}
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
