package simulate

import (
	"testing"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/gcrm"
)

// paperPair is the benchmark's sim-paper workload: LU(100) under G-2DBC(23)
// and Cholesky(100) under GCR&M(23), b = 500 on PaperMachine.
func paperPair(tb testing.TB) (lu, chol dag.Graph, dLU, dChol dist.Distribution) {
	tb.Helper()
	dChol, err := core.New(core.GCRM, 23, core.Options{
		GCRMSearch: gcrm.SearchOptions{Seeds: 10, SizeFactor: 4, BaseSeed: 1, Parallel: true}})
	if err != nil {
		tb.Fatal(err)
	}
	return dag.NewLU(100), dag.NewCholesky(100), dist.NewG2DBC(23), dChol
}

// BenchmarkSimulatePaperPair times one figure point as bench/'s sim-paper
// does, without the bench module: ns/task is the simulator's per-task cost
// (bench's simulate.ns_per_task), allocs/op what one pair allocates.
func BenchmarkSimulatePaperPair(b *testing.B) {
	lu, chol, dLU, dChol := paperPair(b)
	m := PaperMachine()
	tasks := lu.NumTasks() + chol.NumTasks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(lu, 500, dLU, m, Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := Run(chol, 500, dChol, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks), "ns/task")
}

// TestRunAllocationsDoNotScaleWithTasks: Run allocates nothing per task or
// per event. The inference's window rings double only when the window
// outgrows them, delivery records come from a free list, each event lane
// reuses its buffer (restarted when it empties, compacted when it is full),
// and each node's ready queue reuses its buckets and links (popped links go on
// its free list), so LU(40)'s 19 270 tasks more than LU(20)'s cost wider
// rings, some forty more records in flight and a few more lane, bucket and
// link doublings — ≈ 490 allocations —
// where a closure per event cost ≈ 1.1 per task, 24 000 on this pair.
func TestRunAllocationsDoNotScaleWithTasks(t *testing.T) {
	d := dist.NewG2DBC(23)
	m := PaperMachine()
	allocs := func(mt int) float64 {
		g := dag.NewLU(mt)
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(g, 500, d, m, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20), allocs(40)
	if large-small > 1000 {
		t.Errorf("Run allocated %.0f times on LU(20) and %.0f on LU(40): grows with the task count", small, large)
	}
}
