package dist

import (
	"fmt"
	"math"

	"anybc/internal/pattern"
)

// NewTwoDBC returns the classical 2-Dimensional Block-Cyclic distribution on
// an r×c process grid: tile (i, j) is owned by node (i mod r)·c + (j mod c).
// Its pattern is the r×c grid holding each of the P = r·c nodes exactly once,
// so every pattern row holds c distinct nodes and every column r, giving the
// LU communication cost T = r + c.
func NewTwoDBC(r, c int) *Cyclic {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("dist: invalid 2DBC grid %dx%d", r, c))
	}
	pat := pattern.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			pat.Set(i, j, i*c+j)
		}
	}
	return &Cyclic{name: fmt.Sprintf("2DBC(%dx%d)", r, c), p: pat, n: r * c}
}

// bestGrid returns the factorization P = r·c minimizing r + c (the most
// square grid). Ties favor r ≥ c, matching the paper's convention of writing
// grids as "5x4" rather than "4x5".
func bestGrid(P int) (r, c int) {
	if P <= 0 {
		panic(fmt.Sprintf("dist: invalid node count %d", P))
	}
	r, c = P, 1
	for q := 1; q*q <= P; q++ {
		if P%q == 0 && P/q+q < r+c {
			r, c = P/q, q
		}
	}
	return r, c
}

// Best2DBC returns the 2DBC distribution using exactly P nodes with the
// lowest communication cost: the most square grid r·c = P.
func Best2DBC(P int) *Cyclic { return NewTwoDBC(bestGrid(P)) }

// Best2DBCAtMost returns, among all 2DBC grids using at most P nodes, the one
// the paper's experiments would pick: it first minimizes the per-node
// communication cost proxy (r+c)/√(r·c) and then maximizes the node count.
// This reproduces choices such as "for P = 23 use 4x4 (16 nodes) or 7x3 (21)".
func Best2DBCAtMost(P int) *Cyclic {
	if P <= 0 {
		panic(fmt.Sprintf("dist: invalid node count %d", P))
	}
	bestScore := math.Inf(1)
	bestNodes := 0
	bestR, bestC := 1, 1
	for n := 1; n <= P; n++ {
		r, c := bestGrid(n)
		score := float64(r+c) / math.Sqrt(float64(n))
		const eps = 1e-9
		if score < bestScore-eps || (score < bestScore+eps && n > bestNodes) {
			bestScore, bestNodes = score, n
			bestR, bestC = r, c
		}
	}
	return NewTwoDBC(bestR, bestC)
}
