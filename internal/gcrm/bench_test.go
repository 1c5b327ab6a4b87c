package gcrm

import "testing"

// BenchmarkSearch times whole searches, phase 1, phase 2 and the cost of
// every candidate: "bench-p23" is the reduced protocol the benchmark's
// symmetric workloads pay in set-up (10 seeds, r ≤ 4√23), "paper-p100" the
// paper's protocol cut to 10 seeds at a node count the embedded pattern
// database does not cover, the search a first GCR&M job above P = 64 waits
// for. Run with -cpu 1 for a per-core figure; Parallel spreads the seeds
// over GOMAXPROCS.
func BenchmarkSearch(b *testing.B) {
	paper := DefaultSearchOptions()
	paper.Seeds = 10
	cases := []struct {
		name string
		P    int
		opts SearchOptions
	}{
		{"bench-p23", 23, SearchOptions{Seeds: 10, SizeFactor: 4, BaseSeed: 1, Parallel: true}},
		{"paper-p100", 100, paper},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Search(c.P, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
