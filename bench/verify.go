package main

import (
	"math"
	"math/rand"

	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// freivaldsTol is the relative error the randomized product check accepts.
const freivaldsTol = 1e-10

// freivaldsVectors is how many seeded test vectors each check uses.
const freivaldsVectors = 2

// The checks below verify factors with plain loops on purpose: the repo's
// matrix.ResidualLU multiplies with the tile kernels the benchmark times, so
// a kernel bug could hide itself.

// testVector returns the k-th seeded test vector of length n, entries in
// [-1, 1).
func testVector(seed int64, k, n int) []float64 {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(k)))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// relErr returns ‖got − want‖∞ / ‖want‖∞.
func relErr(got, want []float64) float64 {
	diff, norm := 0.0, 0.0
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		norm = math.Max(norm, math.Abs(want[i]))
	}
	if norm == 0 {
		return diff
	}
	return diff / norm
}

// generatedTimes returns A·x for the n×n matrix whose elements at generates.
func generatedTimes(n int, x []float64, at func(i, j int) float64) []float64 {
	ax := make([]float64, n)
	for i := range ax {
		s := 0.0
		for j, xj := range x {
			s += at(i, j) * xj
		}
		ax[i] = s
	}
	return ax
}

// freivaldsLU returns the largest relative error of L·(U·x) against A·x over
// the seeded test vectors, where fact holds the unit-lower L and upper U of
// the diagonally dominant matrix generated from seed.
func freivaldsLU(fact *matrix.Dense, seed int64) float64 {
	n := fact.Rows()
	worst := 0.0
	for k := 0; k < freivaldsVectors; k++ {
		x := testVector(seed, k, n)
		ux := make([]float64, n)
		forEachDenseRow(fact, func(gi, gj0 int, row []float64) {
			s := 0.0
			for c, v := range row {
				if gj0+c >= gi {
					s += v * x[gj0+c]
				}
			}
			ux[gi] += s
		})
		lux := make([]float64, n)
		forEachDenseRow(fact, func(gi, gj0 int, row []float64) {
			s := 0.0
			for c, v := range row {
				if gj0+c < gi {
					s += v * ux[gj0+c]
				}
			}
			lux[gi] += s
		})
		for i := range lux {
			lux[i] += ux[i] // unit diagonal of L
		}
		ax := generatedTimes(n, x, func(i, j int) float64 { return matrix.DiagDominantAt(seed, n, i, j) })
		worst = math.Max(worst, relErr(lux, ax))
	}
	return worst
}

// forEachDenseRow visits every tile row of m: the global row index, the
// global column of the row's first element, and the row's elements.
func forEachDenseRow(m *matrix.Dense, visit func(gi, gj0 int, row []float64)) {
	for ti := 0; ti < m.MT; ti++ {
		for tj := 0; tj < m.NT; tj++ {
			t := m.Tile(ti, tj)
			for r := 0; r < t.Rows; r++ {
				visit(ti*m.B+r, tj*m.B, t.Row(r))
			}
		}
	}
}

// freivaldsCholesky returns the largest relative error of L·(Lᵀ·x) against
// A·x over the seeded test vectors, where fact holds L in its lower triangle
// and A is the SPD matrix generated from seed.
func freivaldsCholesky(fact *matrix.SymmetricLower, seed int64) float64 {
	n := fact.Rows()
	worst := 0.0
	for k := 0; k < freivaldsVectors; k++ {
		x := testVector(seed, k, n)
		ltx := make([]float64, n)
		forEachLowerRow(fact, func(gi, gj0 int, row []float64) {
			for c, v := range row {
				if gj0+c <= gi {
					ltx[gj0+c] += v * x[gi]
				}
			}
		})
		lltx := make([]float64, n)
		forEachLowerRow(fact, func(gi, gj0 int, row []float64) {
			s := 0.0
			for c, v := range row {
				if gj0+c <= gi {
					s += v * ltx[gj0+c]
				}
			}
			lltx[gi] += s
		})
		ax := generatedTimes(n, x, func(i, j int) float64 { return matrix.SPDAt(seed, n, i, j) })
		worst = math.Max(worst, relErr(lltx, ax))
	}
	return worst
}

// forEachLowerRow is forEachDenseRow over the stored lower-triangle tiles.
func forEachLowerRow(m *matrix.SymmetricLower, visit func(gi, gj0 int, row []float64)) {
	for ti := 0; ti < m.MT; ti++ {
		for tj := 0; tj <= ti; tj++ {
			t := m.Tile(ti, tj)
			for r := 0; r < t.Rows; r++ {
				visit(ti*m.B+r, tj*m.B, t.Row(r))
			}
		}
	}
}

// hasher folds float64 bit patterns into a 64-bit digest (FNV-1a over
// words): equal digests across iterations mean bit-identical factors.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) tile(t *tile.Tile) {
	x := uint64(*h)
	for _, v := range t.Data {
		x = (x ^ math.Float64bits(v)) * 1099511628211
	}
	*h = hasher(x)
}

func hashDense(m *matrix.Dense) uint64 {
	h := newHasher()
	for i := 0; i < m.MT; i++ {
		for j := 0; j < m.NT; j++ {
			h.tile(m.Tile(i, j))
		}
	}
	return uint64(h)
}

func hashLower(m *matrix.SymmetricLower) uint64 {
	h := newHasher()
	for i := 0; i < m.MT; i++ {
		for j := 0; j <= i; j++ {
			h.tile(m.Tile(i, j))
		}
	}
	return uint64(h)
}
