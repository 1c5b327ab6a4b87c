// Package tile provides dense matrix tiles and the sequential BLAS/LAPACK
// style kernels that tiled LU and Cholesky factorizations are built from:
// GEMM, SYRK, TRSM, POTRF and GETRF. These are the elementary tasks submitted
// to the task-based runtime, mirroring the kernels Chameleon runs on each
// worker core.
//
// The kernels are written from scratch over row-major float64 storage. Large
// GEMM-shaped updates run through a cache-blocked, register-tiled panel
// kernel (gemm_blocked.go): operands are packed into strip panels and a
// fixed-size microkernel accumulates a small C block in registers — an
// AVX2+FMA assembly kernel on amd64 (CPUID-gated, kernel_amd64.s), a pure-Go
// block elsewhere. The remaining kernels are blocked algorithms over the same
// packed machinery: TRSM solves only small diagonal blocks by scalar
// substitution (trsm_blocked.go), SYRK runs off-diagonal panels and diagonal
// blocks at GEMM rate, and GETRF/POTRF are blocked right-looking
// factorizations whose trailing updates are packed GEMM/SYRK calls
// (factor_blocked.go). The discrete-event simulator models kernel *time* with a
// calibrated machine model, while these implementations provide the
// *numerics* for the real distributed execution used in tests and examples.
package tile

import (
	"fmt"
	"math"
	"math/rand"
)

// Tile is a dense rows×cols matrix block in row-major order.
type Tile struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols tile.
func New(rows, cols int) *Tile {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tile: invalid dimensions %dx%d", rows, cols))
	}
	return &Tile{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (t *Tile) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set stores v at element (i, j).
func (t *Tile) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Row returns the row-i slice, aliasing the tile's storage.
func (t *Tile) Row(i int) []float64 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// Clone returns a deep copy. The copy's storage is allocated from the
// source's contents, so it is written once, not cleared and then overwritten.
func (t *Tile) Clone() *Tile {
	return &Tile{Rows: t.Rows, Cols: t.Cols, Data: append([]float64(nil), t.Data...)}
}

// CopyFrom overwrites t with the contents of src (dimensions must match).
func (t *Tile) CopyFrom(src *Tile) {
	if t.Rows != src.Rows || t.Cols != src.Cols {
		panic(fmt.Sprintf("tile: CopyFrom shape mismatch %dx%d vs %dx%d",
			t.Rows, t.Cols, src.Rows, src.Cols))
	}
	copy(t.Data, src.Data)
}

// Zero sets every element to 0.
func (t *Tile) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Random fills the tile with uniform values in [-1, 1) drawn from rng.
func (t *Tile) Random(rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = 2*rng.Float64() - 1
	}
}

// EqualApprox reports whether both tiles have the same shape and all elements
// within eps of each other.
func (t *Tile) EqualApprox(u *Tile, eps float64) bool {
	if t.Rows != u.Rows || t.Cols != u.Cols {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(v-u.Data[i]) > eps {
			return false
		}
	}
	return true
}

// FrobeniusNorm returns the Frobenius norm of the tile.
func (t *Tile) FrobeniusNorm() float64 { return FrobeniusNorm(t) }

// FrobeniusNorm returns the Frobenius norm over every element of the tiles:
// the square root of one plain sum of squares when that sum is finite and at
// least 2⁻⁹⁰⁰, so that what underflow takes from the squares cannot show.
// Otherwise — the sum overflowed (an entry near 1e154 or larger), every
// entry is below about 1e-136, or there is a NaN or an infinity — it runs
// the scaled loop, which squares nothing that could overflow or underflow.
func FrobeniusNorm(ts ...*Tile) float64 {
	s := 0.0
	for _, t := range ts {
		s += sumSquares(t.Data)
	}
	if s >= 0x1p-900 && s <= math.MaxFloat64 {
		return math.Sqrt(s)
	}
	scale, ssq := 0.0, 1.0
	for _, t := range ts {
		scale, ssq = scaledSumSquares(t.Data, scale, ssq)
	}
	return scale * math.Sqrt(ssq)
}

// sumSquaresGo returns Σ x[i]² in sixteen lanes: lane k adds x[i]·x[i],
// rounded before the add, for every i ≡ k mod 16 in order, and the lanes
// fold in halves (k with k+8, k with k+4, k with k+2, 0 with 1). The
// conversion keeps the compiler from fusing a multiply into the add on an
// architecture that would, so this is sumSquares512's arithmetic exactly.
func sumSquaresGo(x []float64) float64 {
	var acc [16]float64
	for ; len(x) >= 16; x = x[16:] {
		v := (*[16]float64)(x) // one bounds check per sixteen elements
		for k := range acc {
			acc[k] += float64(v[k] * v[k])
		}
	}
	for k, v := range x {
		acc[k] += float64(v * v)
	}
	for w := 8; w > 0; w /= 2 {
		for k := 0; k < w; k++ {
			acc[k] += acc[k+w]
		}
	}
	return acc[0]
}

// scaledSumSquares folds x into the running scaled sum of squares
// scale²·ssq, rescaling whenever an entry exceeds scale.
func scaledSumSquares(x []float64, scale, ssq float64) (float64, float64) {
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale, ssq
}

// Bytes returns the memory footprint of the tile payload, used by the
// communication layer and the simulator to size messages.
func (t *Tile) Bytes() int { return 8 * t.Rows * t.Cols }
