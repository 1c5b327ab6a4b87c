package plan

import (
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
)

// BenchmarkCompileLU24 times one compile of the benchmark's lu-overhead
// graph, LU(24) under G-2DBC(44) — the compile runtime.FactorLU makes on the
// first call of a shape, before its plan cache serves the later ones: ns/task
// is the compile's per-task cost, allocs/op what one compile allocates.
func BenchmarkCompileLU24(b *testing.B) {
	g, d := dag.NewLU(24), dist.NewG2DBC(44)
	tasks := g.NumTasks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(g, d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks), "ns/task")
}
