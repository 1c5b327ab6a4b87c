package experiments

import (
	"math"
	"strings"
	"testing"

	"anybc/internal/core"
	"anybc/internal/dist"
	"anybc/internal/gcrm"
	"anybc/internal/simulate"
)

func quickSearch() gcrm.SearchOptions {
	return gcrm.SearchOptions{Seeds: 10, SizeFactor: 3, BaseSeed: 1, Parallel: true}
}

// quickSimConfig is the small configuration of the shape tests: sweeps that
// finish in seconds.
func quickSimConfig() SimConfig {
	return SimConfig{
		B:          500,
		Ns:         []int{12500, 25000, 50000},
		ScalingN:   50000,
		Machine:    simulate.PaperMachine(),
		GCRMSearch: quickSearch(),
	}
}

func TestTableIaValues(t *testing.T) {
	rows := TableIa(TableIaPs)
	if len(rows) != len(TableIaPs) {
		t.Fatalf("got %d rows", len(rows))
	}
	byP := map[int]TableIaRow{}
	for _, r := range rows {
		byP[r.P] = r
	}
	// Spot-check against the paper's table (with the two documented errata).
	if r := byP[23]; r.DBCDims != "23x1" || r.G2DBCDims != "20x23" || math.Abs(r.G2DBCCost-9.652) > 0.001 {
		t.Errorf("P=23 row wrong: %+v", r)
	}
	if r := byP[31]; math.Abs(r.G2DBCCost-11.194) > 0.001 {
		t.Errorf("P=31 row wrong: %+v", r)
	}
	if r := byP[39]; r.DBCDims != "13x3" || math.Abs(r.G2DBCCost-12.615) > 0.001 {
		t.Errorf("P=39 row wrong: %+v", r)
	}
	// Degenerate cases coincide with 2DBC.
	for _, p := range []int{16, 20, 30, 36} {
		if !byP[p].Degenerate {
			t.Errorf("P=%d should be degenerate", p)
		}
	}
	// For the non-square cases G-2DBC must strictly improve.
	for _, p := range []int{21, 22, 23, 31, 39} {
		if !byP[p].Improved {
			t.Errorf("P=%d: G-2DBC did not improve on 2DBC", p)
		}
	}
}

func TestTableIbValues(t *testing.T) {
	// The best known P=23 pattern is 22x22 (paper Figure 9), so the size cap
	// must allow r ≈ 5√P: the paper's protocol allows 6√P.
	rows, err := TableIb([]int{21, 23, 28, 31, 32, 35, 36}, gcrm.DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]TableIbRow{}
	for _, r := range rows {
		byP[r.P] = r
	}
	if r := byP[21]; r.SBCDims != "7x7" || r.SBCCost != 6 {
		t.Errorf("P=21 SBC row wrong: %+v", r)
	}
	if r := byP[31]; r.SBCNodes != 28 || r.SBCCost != 7 {
		t.Errorf("P=31 SBC fallback wrong: %+v", r)
	}
	if r := byP[35]; r.SBCNodes != 32 || r.SBCCost != 8 {
		t.Errorf("P=35 SBC fallback wrong: %+v", r)
	}
	// GCR&M costs for the paper's legible entries, with search tolerance.
	if r := byP[23]; math.Abs(r.GCRMCost-6.045) > 0.3 {
		t.Errorf("P=23 GCR&M cost %v, paper 6.045", r.GCRMCost)
	}
	if r := byP[35]; r.GCRMCost >= r.SBCCost {
		t.Errorf("P=35: GCR&M cost %v not below SBC %v (paper: 7.4 vs 8)", r.GCRMCost, r.SBCCost)
	}
}

func TestFigure4Shape(t *testing.T) {
	pts := Figure4(40)
	var dbc, g2, ref []CostPoint
	for _, p := range pts {
		switch p.Series {
		case "2DBC":
			dbc = append(dbc, p)
		case "G-2DBC":
			g2 = append(g2, p)
		default:
			ref = append(ref, p)
		}
	}
	if len(dbc) != 40 || len(g2) != 40 || len(ref) != 40 {
		t.Fatalf("series lengths %d/%d/%d", len(dbc), len(g2), len(ref))
	}
	for i := range g2 {
		// G-2DBC never worse than the best exact-P 2DBC, and within the
		// Lemma 2 bound of the 2√P reference.
		if g2[i].T > dbc[i].T+1e-9 {
			t.Errorf("P=%d: G-2DBC %v worse than 2DBC %v", g2[i].P, g2[i].T, dbc[i].T)
		}
		bound := ref[i].T + 2/math.Sqrt(float64(g2[i].P))
		if g2[i].T > bound+1e-9 {
			t.Errorf("P=%d: G-2DBC %v above Lemma 2 bound %v", g2[i].P, g2[i].T, bound)
		}
	}
}

func TestFigure9Candidates(t *testing.T) {
	best, all, err := Figure9(23, quickSearch())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || best == nil {
		t.Fatal("no candidates")
	}
	for _, c := range all {
		if c.Cost < best.Cost-1e-12 {
			t.Fatalf("candidate better than best")
		}
	}
	// Costs must vary with the seed for at least one pattern size
	// (the paper's point about random tie-breaking).
	byR := map[int]map[float64]bool{}
	for _, c := range all {
		if byR[c.R] == nil {
			byR[c.R] = map[float64]bool{}
		}
		byR[c.R][math.Round(c.Cost*1e9)] = true
	}
	varies := false
	for _, costs := range byR {
		if len(costs) > 1 {
			varies = true
		}
	}
	if !varies {
		t.Error("random choices had no effect on any pattern size")
	}
}

func TestFigure10Shape(t *testing.T) {
	pts, err := Figure10(40, quickSearch())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]CostPoint{}
	for _, p := range pts {
		series[p.Series] = append(series[p.Series], p)
	}
	if len(series["SBC"]) == 0 || len(series["GCR&M"]) == 0 {
		t.Fatal("missing series")
	}
	// SBC exists only at its valid node counts; check a few.
	sbcPs := map[int]bool{}
	for _, p := range series["SBC"] {
		sbcPs[p.P] = true
	}
	for _, p := range []int{3, 6, 8, 10, 15, 18, 21, 28, 32, 36} {
		if !sbcPs[p] {
			t.Errorf("SBC point missing at valid P=%d", p)
		}
	}
	if sbcPs[23] || sbcPs[31] {
		t.Error("SBC point present at invalid P")
	}
	// GCR&M tracks or beats SBC where both exist (allowing small search
	// noise), and stays above the empirical √(3P/2) limit − 0.5.
	gcrmByP := map[int]float64{}
	for _, p := range series["GCR&M"] {
		gcrmByP[p.P] = p.T
	}
	for _, sp := range series["SBC"] {
		g, ok := gcrmByP[sp.P]
		if !ok {
			continue
		}
		if g > sp.T+0.75 {
			t.Errorf("P=%d: GCR&M %v much worse than SBC %v", sp.P, g, sp.T)
		}
	}
	for _, p := range series["GCR&M"] {
		if limit := math.Sqrt(1.5 * float64(p.P)); p.T < limit-0.6 {
			t.Errorf("P=%d: GCR&M %v below empirical limit %v", p.P, p.T, limit)
		}
	}
}

// TestFigure10ReportsFailedSearch: a search that cannot build some P fails
// the figure instead of dropping that P's GCR&M point.
func TestFigure10ReportsFailedSearch(t *testing.T) {
	// A size cap of 1·√P leaves P = 2 no feasible pattern size.
	_, err := Figure10(4, gcrm.SearchOptions{Seeds: 1, SizeFactor: 1, BaseSeed: 1})
	if err == nil || !strings.Contains(err.Error(), "P=2") {
		t.Errorf("Figure10 with an infeasible size cap: err %v, want the failed search", err)
	}
}

func TestFigure1And5Shapes(t *testing.T) {
	cfg := quickSimConfig()
	cfg.Ns = []int{25000, 50000}
	pts1, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At the largest N, squarer grids give better per-node performance:
	// 4x4 > 7x3 > 23x1 (paper Figure 1, right).
	per := map[string]float64{}
	for _, p := range pts1 {
		if p.N == 50000 {
			per[p.Series] = p.PerNode
		}
	}
	if !(per["2DBC(4x4)"] > per["2DBC(7x3)"] && per["2DBC(7x3)"] > per["2DBC(23x1)"]) {
		t.Errorf("Figure 1 per-node ordering violated: %v", per)
	}

	pts5, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tot := map[string]float64{}
	for _, p := range pts5 {
		if p.N == 50000 {
			tot[p.Series] = p.GFlops
		}
	}
	// Paper Figure 5: G-2DBC achieves the highest total throughput.
	for s, v := range tot {
		if s != "G-2DBC(P=23)" && tot["G-2DBC(P=23)"] <= v {
			t.Errorf("Figure 5: G-2DBC (%.0f) not above %s (%.0f)", tot["G-2DBC(P=23)"], s, v)
		}
	}
}

func TestFigure7aShape(t *testing.T) {
	cfg := quickSimConfig()
	pts, err := Figure7a(cfg, []int{16, 23, 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points", len(pts))
	}
	// At P=23 G-2DBC must beat the 2DBC fallback; at P=16 and 25 (perfect
	// squares) both coincide in cost so performance is comparable.
	vals := map[string]map[int]float64{}
	for _, p := range pts {
		if vals[p.Series] == nil {
			vals[p.Series] = map[int]float64{}
		}
		vals[p.Series][p.P] = p.GFlops
	}
	g2 := vals["G-2DBC(P=23)"][23]
	dbc := vals["2DBC(4x4)"][23]
	if g2 <= dbc {
		t.Errorf("Figure 7a at P=23: G-2DBC %.0f not above 2DBC fallback %.0f", g2, dbc)
	}
}

func TestFigure11Shape(t *testing.T) {
	cfg := quickSimConfig()
	cfg.Ns = []int{50000}
	pts, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gcrmTot, sbcTot float64
	for _, p := range pts {
		if strings.HasPrefix(p.Series, "GCR&M") {
			gcrmTot = p.GFlops
		} else {
			sbcTot = p.GFlops
		}
	}
	// Paper Figure 11: GCR&M on all 31 nodes has higher raw performance
	// than SBC on 28.
	if gcrmTot <= sbcTot {
		t.Errorf("Figure 11: GCR&M %.0f not above SBC %.0f", gcrmTot, sbcTot)
	}
}

func TestCommValidation(t *testing.T) {
	if _, err := CommValidation(0, 3, 8); err == nil || !strings.Contains(err.Error(), "mt = 0 tiles") {
		t.Errorf("CommValidation at mt = 0: err %v, want one naming the size", err)
	}
	rows, err := CommValidation(16, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Measured != r.Structural {
			t.Errorf("%s %s: measured %d != structural %d", r.Kernel, r.Scheme, r.Measured, r.Structural)
		}
		if ratio := r.Ratio(); ratio > 1.0+1e-9 || ratio < 0.6 {
			t.Errorf("%s %s: measured/predicted = %v", r.Kernel, r.Scheme, ratio)
		}
	}
	var b strings.Builder
	RenderValidation(&b, 16, rows)
	if !strings.Contains(b.String(), "structural") {
		t.Error("RenderValidation missing header")
	}
}

func TestRenderers(t *testing.T) {
	var b strings.Builder
	RenderTableIa(&b, TableIa([]int{23, 36}))
	if !strings.Contains(b.String(), "20x23") {
		t.Error("RenderTableIa missing dims")
	}
	rows, err := TableIb([]int{21}, quickSearch())
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderTableIb(&b, rows)
	if !strings.Contains(b.String(), "7x7") {
		t.Error("RenderTableIb missing dims")
	}
	b.Reset()
	RenderCost(&b, "fig4", Figure4(5))
	if !strings.Contains(b.String(), "G-2DBC") {
		t.Error("RenderCost missing series")
	}
	best, all, err := Figure9(23, quickSearch())
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderCandidates(&b, 23, best, all)
	if !strings.Contains(b.String(), "Figure 9") {
		t.Error("RenderCandidates missing title")
	}
	cfg := quickSimConfig()
	cfg.Ns = []int{12500}
	pts, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderPerf(&b, "fig6", pts)
	if !strings.Contains(b.String(), "GFlop/s") {
		t.Error("RenderPerf missing header")
	}
}

// TestGCRMPatternCache: Table Ib, Figure 10 and the GCR&M distributions of
// the performance figures share one search per (P, options), whether or not
// it runs in parallel.
func TestGCRMPatternCache(t *testing.T) {
	a, err := core.SearchGCRM(23, quickSearch())
	if err != nil {
		t.Fatal(err)
	}
	serial := quickSearch()
	serial.Parallel = false
	b, err := core.SearchGCRM(23, serial)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss for identical search")
	}
	d, err := core.New(core.GCRM, 23, core.Options{GCRMSearch: quickSearch()})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := dist.PatternOf(d); p != a.Pattern {
		t.Error("core.New searched again")
	}
}
