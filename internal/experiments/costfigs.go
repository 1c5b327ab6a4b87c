package experiments

import (
	"math"

	"anybc/internal/core"
	"anybc/internal/dist"
	"anybc/internal/gcrm"
	"anybc/internal/lowerbound"
)

// CostPoint is one point of a cost-versus-P study (Figures 4 and 10).
type CostPoint struct {
	P      int
	Series string
	T      float64
}

// Figure4 reproduces Figure 4: the LU communication cost of the best exact-P
// 2DBC pattern and of the G-2DBC pattern for P = 1..maxP, with the 2√P
// reference.
func Figure4(maxP int) []CostPoint {
	var out []CostPoint
	for p := 1; p <= maxP; p++ {
		out = append(out,
			CostPoint{P: p, Series: "2DBC", T: dist.Best2DBC(p).Pattern().CostLU()},
			CostPoint{P: p, Series: "G-2DBC", T: dist.NewG2DBC(p).Pattern().CostLU()},
			CostPoint{P: p, Series: "2sqrt(P)", T: lowerbound.PatternCostLU(p)},
		)
	}
	return out
}

// Figure9 reproduces Figure 9: every (pattern size, seed) candidate the
// GCR&M search evaluates for one P, exposing the effect of the pattern size
// and of random tie-breaking on the cost.
func Figure9(P int, opts gcrm.SearchOptions) (best *gcrm.Result, all []gcrm.Candidate, err error) {
	return gcrm.Sample(P, opts)
}

// sbcLaw is √(2P), the cost of the basic SBC family quoted in Section V-B:
// a cost the scheme attains, not a bound.
func sbcLaw(P int) float64 { return math.Sqrt(2 * float64(P)) }

// gcrmLaw is √(3P/2), the cost the paper observes for regular GCR&M patterns
// (v = 3 colrows per node): a cost the scheme attains, not a bound.
func gcrmLaw(P int) float64 { return math.Sqrt(1.5 * float64(P)) }

// Figure10 reproduces Figure 10: the symmetric (colrow) cost of every
// pattern family for P = 2..maxP — 2DBC and G-2DBC (cost−1 rule), SBC at its
// valid node counts, GCR&M everywhere, and the √(2P) and √(3P/2) laws. It
// fails if opts cannot build a GCR&M pattern for some P.
func Figure10(maxP int, opts gcrm.SearchOptions) ([]CostPoint, error) {
	var out []CostPoint
	for p := 2; p <= maxP; p++ {
		out = append(out,
			CostPoint{P: p, Series: "2DBC", T: dist.Best2DBC(p).Pattern().CostLU() - 1},
			CostPoint{P: p, Series: "G-2DBC", T: dist.NewG2DBC(p).Pattern().CostLU() - 1},
			CostPoint{P: p, Series: "sqrt(2P)", T: sbcLaw(p)},
			CostPoint{P: p, Series: "sqrt(3P/2)", T: gcrmLaw(p)},
		)
		if sbc, errSBC := dist.NewSBC(p); errSBC == nil {
			out = append(out, CostPoint{P: p, Series: "SBC", T: sbc.Pattern().CostCholesky()})
		}
		if sts, errSTS := dist.NewSTSForP(p); errSTS == nil {
			// Extension: the explicit Steiner-triple-system points, sitting
			// on the √(3P/2) line the paper observes empirically.
			out = append(out, CostPoint{P: p, Series: "STS", T: sts.Pattern().CostCholesky()})
		}
		res, err := core.SearchGCRM(p, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, CostPoint{P: p, Series: "GCR&M", T: res.Cost})
	}
	return out, nil
}
