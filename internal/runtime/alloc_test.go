package runtime

import (
	gort "runtime"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
	"anybc/internal/tile"
)

// TestRunAllocBudget pins what compiling once bought on the overhead-bound
// shape (mt=24, b=8, G-2DBC(44), Workers=2 — the lu-overhead workload's): a
// whole FactorLU call, plan compile included, stays under factorAllocBudget
// allocations (118 697 before the plan) and a warm one under
// factorByteBudget bytes, and the engines' set-up allocates per node, not per
// task.
func TestRunAllocBudget(t *testing.T) {
	const mt, b, P = 24, 8, 44
	d := dist.NewG2DBC(P)
	gen := GenDiagDominant(mt, b, 3)
	perCall := testing.AllocsPerRun(3, func() {
		if _, _, err := FactorLU(mt, b, d, gen, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("FactorLU allocates %.0f objects per call", perCall)
	if perCall > factorAllocBudget {
		t.Errorf("FactorLU allocates %.0f objects per call, budget %d", perCall, factorAllocBudget)
	}
	const calls = 4
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	for range calls {
		if _, _, err := FactorLU(mt, b, d, gen, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	gort.ReadMemStats(&after)
	perCallBytes := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("a warm FactorLU call allocates %d bytes", perCallBytes)
	if perCallBytes > factorByteBudget {
		t.Errorf("a warm FactorLU call allocates %d bytes, budget %d", perCallBytes, factorByteBudget)
	}

	// Set-up on a compiled plan: with a generator that allocates nothing,
	// what is left is the engines' own per-run state — a fixed number of
	// flat slices per node, whatever the task count.
	cl := cluster.New(P)
	defer cl.Close()
	shared := tile.New(b, b)
	opt := Options{Workers: 2}
	if err := opt.normalize(d); err != nil {
		t.Fatal(err)
	}
	const perNode = 32
	for _, tiles := range []int{mt / 2, mt} {
		g := dag.NewLU(tiles)
		pl, err := plan.Compile(g, d)
		if err != nil {
			t.Fatal(err)
		}
		setup := testing.AllocsPerRun(3, func() {
			for rank := 0; rank < P; rank++ {
				newEngine(rank, cl.Comm(rank), pl, func(i, j int) *tile.Tile { return shared }, LUKernel, opt, time.Time{})
			}
		})
		if setup > perNode*P {
			t.Errorf("mt=%d (%d tasks): set-up of %d engines allocates %.0f objects, want at most %d per node",
				tiles, g.NumTasks(), P, setup, perNode)
		}
	}
}
