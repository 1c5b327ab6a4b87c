package experiments

import (
	"math"

	"anybc/internal/dist"
)

// WeakScaling is an extension of the paper's strong-scaling study
// (Figure 7a): the matrix grows with the node count so that memory per node
// stays constant (N = baseN·√(P/P₀)), and the metric of interest is the
// per-node efficiency. Under 2DBC the efficiency staircases with the grid
// quality; G-2DBC keeps it flat in P — the "any number of nodes" property
// under the weak-scaling lens.
func WeakScaling(cfg SimConfig, baseN, baseP int, ps []int) ([]PerfPoint, error) {
	var pts []simPoint
	for _, p := range ps {
		n := int(float64(baseN) * math.Sqrt(float64(p)/float64(baseP)))
		// Round to a whole number of tiles.
		mt := (n + cfg.B/2) / cfg.B
		if mt < 2 {
			mt = 2
		}
		pts = append(pts,
			simPoint{n: mt * cfg.B, d: dist.Best2DBCAtMost(p), p: p},
			simPoint{n: mt * cfg.B, d: dist.NewG2DBC(p), p: p})
	}
	return simulateAll(cfg, false, pts)
}
