package tile

// Cache blocking parameters of the panel-blocked GEMM. One packed B panel is
// gemmKC×n (streamed once per k-panel), one packed A panel is gemmMC×gemmKC
// and stays L2-resident while the microkernel sweeps the B panel. The
// microkernel tile itself is gemmMR×gemmNR (per-architecture constants, see
// kernel_*.go) and accumulates in registers over the full panel depth.
const (
	gemmMC = 64  // rows of op(A) per packed panel
	gemmKC = 240 // panel depth shared by the packed A and B panels
)

// gemmSmallDim: below this m·n·k volume the packing overhead outweighs the
// microkernel's throughput and the direct loops win (empirically ~24³ on
// amd64; the distributed tests run tiles as small as 4×4).
const gemmSmallVolume = 24 * 24 * 24

// opView is a read-only view of op(X) for a row-major operand X: plain
// (i,j) ↦ data[i*ld+j] access, or the transposed view (i,j) ↦ data[j*ld+i].
// Offsetting data lets SYRK carve sub-panels out of one operand.
type opView struct {
	data  []float64
	ld    int
	trans bool
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

// packA writes rows [ii, ii+ib) × depth [kk, kk+kb) of op(A) into dst as
// gemmMR-row strips: strip s holds rows ii+s·MR .. interleaved by depth,
// dst[s·MR·kb + l·MR + r] = op(A)[ii+s·MR+r][kk+l], zero-padded to full
// strips so the microkernel never reads past the matrix edge.
func packA(dst []float64, a opView, ii, ib, kk, kb int) {
	idx := 0
	for i0 := 0; i0 < ib; i0 += gemmMR {
		rows := ib - i0
		if rows > gemmMR {
			rows = gemmMR
		}
		if !a.trans {
			for r := 0; r < rows; r++ {
				src := a.data[(ii+i0+r)*a.ld+kk : (ii+i0+r)*a.ld+kk+kb]
				d := idx + r
				for l := 0; l < kb; l++ {
					dst[d] = src[l]
					d += gemmMR
				}
			}
			if rows < gemmMR {
				for l := 0; l < kb; l++ {
					for r := rows; r < gemmMR; r++ {
						dst[idx+l*gemmMR+r] = 0
					}
				}
			}
		} else {
			for l := 0; l < kb; l++ {
				src := a.data[(kk+l)*a.ld+ii+i0 : (kk+l)*a.ld+ii+i0+rows]
				d := idx + l*gemmMR
				for r := 0; r < rows; r++ {
					dst[d+r] = src[r]
				}
				for r := rows; r < gemmMR; r++ {
					dst[d+r] = 0
				}
			}
		}
		idx += kb * gemmMR
	}
}

// packB writes depth [kk, kk+kb) × all n columns of op(B) into dst as
// gemmNR-column strips: dst[t·NR·kb + l·NR + c] = op(B)[kk+l][t·NR+c],
// zero-padded on the last strip.
func packB(dst []float64, b opView, kk, kb, n int) {
	idx := 0
	for j0 := 0; j0 < n; j0 += gemmNR {
		cols := n - j0
		if cols > gemmNR {
			cols = gemmNR
		}
		if !b.trans {
			for l := 0; l < kb; l++ {
				src := b.data[(kk+l)*b.ld+j0 : (kk+l)*b.ld+j0+cols]
				d := idx + l*gemmNR
				for c := 0; c < cols; c++ {
					dst[d+c] = src[c]
				}
				for c := cols; c < gemmNR; c++ {
					dst[d+c] = 0
				}
			}
		} else {
			for c := 0; c < cols; c++ {
				src := b.data[(j0+c)*b.ld+kk : (j0+c)*b.ld+kk+kb]
				d := idx + c
				for l := 0; l < kb; l++ {
					dst[d] = src[l]
					d += gemmNR
				}
			}
			if cols < gemmNR {
				for l := 0; l < kb; l++ {
					for c := cols; c < gemmNR; c++ {
						dst[idx+l*gemmNR+c] = 0
					}
				}
			}
		}
		idx += kb * gemmNR
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
	nStrips := (n + gemmNR - 1) / gemmNR
	bp := getPack(gemmKC * nStrips * gemmNR)
	defer putPack(bp)
	ap := getPack(gemmMC * gemmKC)
	defer putPack(ap)
	for kk := 0; kk < k; kk += gemmKC {
		kb := k - kk
		if kb > gemmKC {
			kb = gemmKC
		}
		packB(bp.Data, b, kk, kb, n)
		for ii := 0; ii < m; ii += gemmMC {
			ib := m - ii
			if ib > gemmMC {
				ib = gemmMC
			}
			packA(ap.Data, a, ii, ib, kk, kb)
			gemmPanelSweep(alpha, ap.Data, bp.Data, ii, ib, kb, n, cdata, ldc)
		}
	}
}

// gemmPanelSweep runs the microkernel over one packed A panel (rows
// [ii, ii+ib), depth kb) against the full packed B panel, accumulating into
// C rows [ii, ii+ib).
func gemmPanelSweep(alpha float64, ap, bp []float64, ii, ib, kb, n int, cdata []float64, ldc int) {
	for i0 := 0; i0 < ib; i0 += gemmMR {
		rows := ib - i0
		if rows > gemmMR {
			rows = gemmMR
		}
		aps := ap[i0*kb:]
		for j0 := 0; j0 < n; j0 += gemmNR {
			cols := n - j0
			if cols > gemmNR {
				cols = gemmNR
			}
			bps := bp[j0*kb:]
			if rows == gemmMR && cols == gemmNR {
				microKernel(aps, bps, kb, alpha, cdata[(ii+i0)*ldc+j0:], ldc)
			} else {
				// Edge tile: compute into a zeroed scratch block and
				// fold only the in-bounds part into C.
				var scratch [gemmMR * gemmNR]float64
				microKernel(aps, bps, kb, alpha, scratch[:], gemmNR)
				for r := 0; r < rows; r++ {
					crow := cdata[(ii+i0+r)*ldc+j0 : (ii+i0+r)*ldc+j0+cols]
					srow := scratch[r*gemmNR : r*gemmNR+cols]
					for c := range crow {
						crow[c] += srow[c]
					}
				}
			}
		}
	}
}

// microScalar is the architecture-independent microkernel: a plain-Go
// gemmMR×gemmNR register block over the packed strips. The asm kernels
// replace it where available; it also serves the edge cases of archs whose
// preferred shape has no scalar specialization.
func microScalar(ap, bp []float64, kb int, alpha float64, c []float64, ldc int) {
	var acc [gemmMR * gemmNR]float64
	for l := 0; l < kb; l++ {
		as := ap[l*gemmMR : l*gemmMR+gemmMR : l*gemmMR+gemmMR]
		bs := bp[l*gemmNR : l*gemmNR+gemmNR : l*gemmNR+gemmNR]
		for r := 0; r < gemmMR; r++ {
			ar := as[r]
			row := acc[r*gemmNR : r*gemmNR+gemmNR : r*gemmNR+gemmNR]
			for j := 0; j < gemmNR; j++ {
				row[j] += ar * bs[j]
			}
		}
	}
	for r := 0; r < gemmMR; r++ {
		crow := c[r*ldc : r*ldc+gemmNR : r*ldc+gemmNR]
		row := acc[r*gemmNR : r*gemmNR+gemmNR : r*gemmNR+gemmNR]
		for j := 0; j < gemmNR; j++ {
			crow[j] += alpha * row[j]
		}
	}
}
