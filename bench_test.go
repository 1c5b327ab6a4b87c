package anybc

// One benchmark per table and figure of the paper's evaluation section, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// Custom metrics attached to each benchmark report the headline quantity of
// the corresponding artifact (a communication cost T or a simulated GFlop/s
// value), so the benchmark log doubles as a summary of the reproduction.

import (
	"testing"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/experiments"
	"anybc/internal/gcrm"
	"anybc/internal/simulate"
)

func benchSearchOpts() gcrm.SearchOptions {
	return gcrm.SearchOptions{Seeds: 10, SizeFactor: 4, BaseSeed: 1, Parallel: true}
}

// BenchmarkTableIa regenerates Table Ia (LU pattern dimensions and costs).
func BenchmarkTableIa(b *testing.B) {
	var rows []experiments.TableIaRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableIa(experiments.TableIaPs)
	}
	for _, r := range rows {
		if r.P == 23 {
			b.ReportMetric(r.G2DBCCost, "T(G-2DBC,P=23)")
			b.ReportMetric(r.DBCCost, "T(2DBC,P=23)")
		}
	}
}

// BenchmarkTableIb regenerates Table Ib (Cholesky pattern costs).
func BenchmarkTableIb(b *testing.B) {
	var rows []experiments.TableIbRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIb(experiments.TableIbPs, benchSearchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.P == 35 {
			b.ReportMetric(r.GCRMCost, "T(GCR&M,P=35)")
			b.ReportMetric(r.SBCCost, "T(SBC,P=35)")
		}
	}
}

// perfBench runs a simulated performance figure and reports the GFlop/s of
// the paper's headline series at the largest N.
func perfBench(b *testing.B, run func(experiments.SimConfig) ([]experiments.PerfPoint, error), series string) {
	b.Helper()
	cfg := experiments.QuickSimConfig()
	cfg.GCRMSearch = benchSearchOpts()
	var pts []experiments.PerfPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxN := 0
	for _, p := range pts {
		if p.N > maxN {
			maxN = p.N
		}
	}
	for _, p := range pts {
		if p.N == maxN && p.Series == series {
			b.ReportMetric(p.GFlops, "GF/s("+series+")")
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (2DBC grid shapes for LU).
func BenchmarkFigure1(b *testing.B) {
	perfBench(b, experiments.Figure1, "2DBC(4x4)")
}

// BenchmarkFigure4 regenerates Figure 4 (cost of G-2DBC vs best 2DBC).
func BenchmarkFigure4(b *testing.B) {
	var pts []experiments.CostPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure4(64)
	}
	for _, p := range pts {
		if p.P == 23 && p.Series == "G-2DBC" {
			b.ReportMetric(p.T, "T(G-2DBC,P=23)")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (LU, P=23).
func BenchmarkFigure5(b *testing.B) {
	perfBench(b, experiments.Figure5, "G-2DBC(P=23)")
}

// BenchmarkFigure6 regenerates Figure 6 (LU, P=39).
func BenchmarkFigure6(b *testing.B) {
	perfBench(b, experiments.Figure6, "G-2DBC(P=39)")
}

// BenchmarkFigure7a regenerates Figure 7a (LU strong scaling).
func BenchmarkFigure7a(b *testing.B) {
	cfg := experiments.QuickSimConfig()
	var pts []experiments.PerfPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure7a(cfg, []int{16, 20, 23, 31, 36, 39})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.P == 23 && p.Series == "G-2DBC(P=23)" {
			b.ReportMetric(p.GFlops, "GF/s(G-2DBC,P=23)")
		}
	}
}

// BenchmarkFigure7b regenerates Figure 7b (Cholesky strong scaling).
func BenchmarkFigure7b(b *testing.B) {
	cfg := experiments.QuickSimConfig()
	cfg.GCRMSearch = benchSearchOpts()
	var pts []experiments.PerfPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure7b(cfg, []int{21, 23, 31, 35})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.P == 31 && p.Series != "" && p.Messages > 0 && p.N == cfg.ScalingN {
			b.ReportMetric(p.GFlops, "GF/s(P=31,"+p.Series+")")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (GCR&M pattern-size/seed study).
func BenchmarkFigure9(b *testing.B) {
	var best *gcrm.Result
	for i := 0; i < b.N; i++ {
		var err error
		best, _, err = experiments.Figure9(23, benchSearchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(best.Cost, "T(best,P=23)")
	b.ReportMetric(float64(best.R), "r(best,P=23)")
}

// BenchmarkFigure10 regenerates Figure 10 (symmetric pattern costs).
func BenchmarkFigure10(b *testing.B) {
	var pts []experiments.CostPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure10(48, benchSearchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.P == 28 && p.Series == "GCR&M" {
			b.ReportMetric(p.T, "T(GCR&M,P=28)")
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11 (Cholesky, P=31).
func BenchmarkFigure11(b *testing.B) {
	perfBench(b, experiments.Figure11, "SBC(8x8,P=28)")
}

// BenchmarkFigure12 regenerates Figure 12 (Cholesky, P=35).
func BenchmarkFigure12(b *testing.B) {
	perfBench(b, experiments.Figure12, "SBC(8x8,P=32)")
}

// BenchmarkConstructionG2DBC measures pattern-construction cost: building
// the G-2DBC pattern is trivial even for large P (the paper notes pattern
// construction is a non-issue and can be done once and for all).
func BenchmarkConstructionG2DBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = dist.NewG2DBC(997) // worst case: prime P
	}
}

// BenchmarkConstructionGCRMSearch measures one full GCR&M search for P=23
// (the paper: "it only takes a few seconds on a laptop").
func BenchmarkConstructionGCRMSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gcrm.Search(23, benchSearchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScheduler compares the simulator's two ready-queue
// policies on the paper's P=23 LU case: the conclusions must not hinge on
// the local scheduling heuristic.
func BenchmarkAblationScheduler(b *testing.B) {
	g := dag.NewLU(50)
	d := dist.NewG2DBC(23)
	m := simulate.PaperMachine()
	var iter, fifo float64
	for i := 0; i < b.N; i++ {
		r1, err := simulate.Run(g, 500, d, m, simulate.Options{Scheduler: simulate.IterationOrder})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := simulate.Run(g, 500, d, m, simulate.Options{Scheduler: simulate.FIFOOrder})
		if err != nil {
			b.Fatal(err)
		}
		iter, fifo = r1.GFlops(), r2.GFlops()
	}
	b.ReportMetric(iter, "GF/s(iteration)")
	b.ReportMetric(fifo, "GF/s(fifo)")
}

// BenchmarkAblationSizeCap sweeps the GCR&M pattern-size cap (the paper's
// open question about how large a pattern needs to be): reports the best
// cost reachable under caps 2√P, 4√P and 6√P for P=23.
func BenchmarkAblationSizeCap(b *testing.B) {
	caps := []float64{2, 4, 6}
	costs := make([]float64, len(caps))
	for i := 0; i < b.N; i++ {
		for k, c := range caps {
			res, err := gcrm.Search(23, gcrm.SearchOptions{Seeds: 10, SizeFactor: c, BaseSeed: 1, Parallel: true})
			if err != nil {
				b.Fatal(err)
			}
			costs[k] = res.Cost
		}
	}
	b.ReportMetric(costs[0], "T(cap=2sqrtP)")
	b.ReportMetric(costs[1], "T(cap=4sqrtP)")
	b.ReportMetric(costs[2], "T(cap=6sqrtP)")
}

// BenchmarkAblationDiagonal compares the dynamic (extended-SBC) diagonal
// rule against a static in-colrow diagonal assignment, measuring realized
// load imbalance on a 64-tile-row matrix: the dynamic rule is what keeps
// GCR&M patterns balanced.
func BenchmarkAblationDiagonal(b *testing.B) {
	res, err := core.SearchGCRM(23, benchSearchOpts())
	if err != nil {
		b.Fatal(err)
	}
	var dynamicSpread, staticSpread float64
	for i := 0; i < b.N; i++ {
		// Dynamic rule.
		dres := dist.NewDiagResolver("dyn", res.Pattern.Clone())
		dynamicSpread = spread(tileLoads(dres, 64))
		// Static rule: diagonal cell fixed to the first node on its colrow.
		static := res.Pattern.Clone()
		for dcell := 0; dcell < static.Rows(); dcell++ {
			for k := 0; k < static.Cols(); k++ {
				if v := static.At(dcell, k); v >= 0 {
					static.Set(dcell, dcell, v)
					break
				}
			}
		}
		sres := dist.NewDiagResolver("static", static)
		staticSpread = spread(tileLoads(sres, 64))
	}
	b.ReportMetric(dynamicSpread, "spread(dynamic)")
	b.ReportMetric(staticSpread, "spread(static)")
}

// tileLoads counts the tiles of the lower extent×extent triangle each node
// owns.
func tileLoads(d dist.Distribution, extent int) []int64 {
	loads := make([]int64, d.Nodes())
	for i := 0; i < extent; i++ {
		for j := 0; j <= i; j++ {
			loads[d.Owner(i, j)]++
		}
	}
	return loads
}

func spread(loads []int64) float64 {
	min, max := loads[0], loads[0]
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	mean := float64(0)
	for _, l := range loads {
		mean += float64(l)
	}
	mean /= float64(len(loads))
	return float64(max-min) / mean
}
