package anybc

// One benchmark per committed results/ file, plus the pattern-construction
// and ablation benchmarks for the design choices called out in DESIGN.md.
// Run them all with:
//
//	go test -run '^$' -bench=. -benchmem
//
// or one file's regeneration with -bench 'Artifacts/fig5.txt'.

import (
	"io"
	"testing"

	"anybc/internal/core"
	"anybc/internal/dist"
	"anybc/internal/experiments"
	"anybc/internal/gcrm"
)

func benchSearchOpts() gcrm.SearchOptions {
	return gcrm.SearchOptions{Seeds: 10, SizeFactor: 4, BaseSeed: 1, Parallel: true}
}

// BenchmarkArtifacts renders each file of results/ whole, one sub-benchmark
// per experiments.Artifacts row: what `simfact -regen FILE` spends. The two
// _paper rows take 15–35 s and 1–3 min an iteration on 2 vCPUs.
func BenchmarkArtifacts(b *testing.B) {
	for _, a := range experiments.Artifacts {
		b.Run(a.File, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := a.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
