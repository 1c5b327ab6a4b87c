package dist

import (
	"fmt"
	"math"

	"anybc/internal/pattern"
)

// TwoDBC is the classical 2-Dimensional Block-Cyclic distribution on an r×c
// process grid: tile (i, j) is owned by node (i mod r)·c + (j mod c).
// Its pattern is the r×c grid holding each of the P = r·c nodes exactly once,
// so every pattern row holds c distinct nodes and every column r, giving the
// LU communication cost T = r + c.
type TwoDBC struct {
	r, c int
	pat  *pattern.Pattern
}

// NewTwoDBC returns the 2DBC distribution on an r×c grid.
func NewTwoDBC(r, c int) *TwoDBC {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("dist: invalid 2DBC grid %dx%d", r, c))
	}
	pat := pattern.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			pat.Set(i, j, i*c+j)
		}
	}
	return &TwoDBC{r: r, c: c, pat: pat}
}

// Name implements Distribution.
func (d *TwoDBC) Name() string { return fmt.Sprintf("2DBC(%dx%d)", d.r, d.c) }

// Nodes implements Distribution.
func (d *TwoDBC) Nodes() int { return d.r * d.c }

// Owner implements Distribution.
func (d *TwoDBC) Owner(i, j int) int { return (i%d.r)*d.c + (j % d.c) }

// Pattern implements PatternDistribution.
func (d *TwoDBC) Pattern() *pattern.Pattern { return d.pat }

// Grid returns the (r, c) process-grid shape.
func (d *TwoDBC) Grid() (r, c int) { return d.r, d.c }

// Best2DBC returns the 2DBC distribution using exactly P nodes with the
// lowest communication cost, i.e. the factorization P = r·c minimizing r + c
// (the most square grid). Ties favor r ≥ c, matching the paper's convention of
// writing grids as "5x4" rather than "4x5".
func Best2DBC(P int) *TwoDBC {
	if P <= 0 {
		panic(fmt.Sprintf("dist: invalid node count %d", P))
	}
	bestR, bestC := P, 1
	for c := 1; c*c <= P; c++ {
		if P%c == 0 {
			r := P / c
			if r+c < bestR+bestC {
				bestR, bestC = r, c
			}
		}
	}
	return NewTwoDBC(bestR, bestC)
}

// Best2DBCAtMost returns, among all 2DBC grids using at most P nodes, the one
// the paper's experiments would pick: it first minimizes the per-node
// communication cost proxy (r+c)/√(r·c) and then maximizes the node count.
// This reproduces choices such as "for P = 23 use 4x4 (16 nodes) or 7x3 (21)".
func Best2DBCAtMost(P int) *TwoDBC {
	if P <= 0 {
		panic(fmt.Sprintf("dist: invalid node count %d", P))
	}
	bestScore := math.Inf(1)
	bestNodes := 0
	bestR, bestC := 1, 1
	for n := 1; n <= P; n++ {
		d := Best2DBC(n)
		r, c := d.Grid()
		score := float64(r+c) / math.Sqrt(float64(n))
		const eps = 1e-9
		if score < bestScore-eps || (score < bestScore+eps && n > bestNodes) {
			bestScore, bestNodes = score, n
			bestR, bestC = r, c
		}
	}
	return NewTwoDBC(bestR, bestC)
}
