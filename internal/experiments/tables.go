package experiments

import (
	"anybc/internal/core"
	"anybc/internal/dist"
	"anybc/internal/gcrm"
)

// TableIaRow is one row of Table Ia: the best 2DBC grid using exactly P
// nodes versus the G-2DBC pattern, with their LU communication costs.
type TableIaRow struct {
	P          int
	DBCDims    string
	DBCCost    float64
	G2DBCDims  string
	G2DBCCost  float64
	Improved   bool // G-2DBC strictly cheaper than the best exact-P 2DBC
	Degenerate bool // c == 0: G-2DBC coincides with 2DBC
}

// TableIaPs lists the node counts of the paper's Table Ia.
var TableIaPs = []int{16, 20, 21, 22, 23, 30, 31, 35, 36, 39}

// TableIa computes Table Ia for the given node counts.
func TableIa(ps []int) []TableIaRow {
	rows := make([]TableIaRow, 0, len(ps))
	for _, p := range ps {
		dbc := dist.Best2DBC(p)
		g := dist.NewG2DBC(p)
		_, _, c := dist.G2DBCParams(p)
		row := TableIaRow{
			P:          p,
			DBCDims:    dbc.Pattern().Dims(),
			DBCCost:    dbc.Pattern().CostLU(),
			G2DBCDims:  g.Pattern().Dims(),
			G2DBCCost:  g.Pattern().CostLU(),
			Degenerate: c == 0,
		}
		row.Improved = row.G2DBCCost < row.DBCCost-1e-9
		rows = append(rows, row)
	}
	return rows
}

// TableIbRow is one row of Table Ib: the best SBC distribution using at most
// P nodes versus the GCR&M pattern on all P nodes, with Cholesky costs.
type TableIbRow struct {
	P        int
	SBCNodes int
	SBCDims  string
	SBCCost  float64
	GCRMDims string
	GCRMCost float64
}

// TableIbPs lists the node counts of the paper's Table Ib.
var TableIbPs = []int{21, 23, 28, 31, 32, 35, 36, 39}

// TableIb computes Table Ib for the given node counts.
func TableIb(ps []int, opts gcrm.SearchOptions) ([]TableIbRow, error) {
	rows := make([]TableIbRow, 0, len(ps))
	for _, p := range ps {
		sbc := dist.BestSBCAtMost(p)
		row := TableIbRow{
			P:        p,
			SBCNodes: sbc.Nodes(),
			SBCDims:  sbc.Pattern().Dims(),
			SBCCost:  sbc.Pattern().CostCholesky(),
		}
		res, err := core.SearchGCRM(p, opts)
		if err != nil {
			return nil, err
		}
		row.GCRMDims = res.Pattern.Dims()
		row.GCRMCost = res.Cost
		rows = append(rows, row)
	}
	return rows, nil
}
