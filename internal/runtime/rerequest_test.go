package runtime

import (
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// TestReRequestBudgetSparesHealthyOwner is the regression for a fault-free
// run dying of its own re-request protocol. Every awaited version's clock
// starts at run start, so a version whose producer has simply not run yet
// goes overdue and is re-requested; the retry budget must not be held against
// an owner that keeps being heard from. The run here lasts far longer than
// the ≈15 ms it takes to spend three requests at a 1 ms timeout, on a healthy
// network — it used to fail with ErrUndelivered naming a live owner (and
// under Elastic would have presumed that owner dead).
//
// The kernels sleep rather than compute for that time: CPU-bound workers
// outnumbering the cores (the race detector's CI job has two) stall a peer's
// event loop for longer than this deliberately tiny budget, and a stalled
// peer is, to any timeout, a silent one.
func TestReRequestBudgetSparesHealthyOwner(t *testing.T) {
	const mt, b = 12, 4
	d := dist.Best2DBC(4)
	slowLU := func(tk dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		time.Sleep(500 * time.Microsecond)
		return LUKernel(tk, out, inputs)
	}
	factor := func(opt Options) (*matrix.Dense, *Report) {
		t.Helper()
		out := matrix.NewDense(mt, mt, b)
		rep, err := Run(dag.NewLU(mt), d, b, GenDiagDominant(mt, b, 41), slowLU, opt,
			func(i, j int, tl *tile.Tile) { out.SetTile(i, j, tl.Clone()) })
		if err != nil {
			t.Fatalf("fault-free %v run with the re-request protocol armed (timeout %v) failed: %v",
				opt.Broadcast, opt.ArrivalTimeout, err)
		}
		return out, rep
	}
	base, _ := factor(Options{Workers: 1})
	for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
		fact, rep := factor(Options{Workers: 1, Broadcast: mode, ArrivalTimeout: time.Millisecond, MaxReRequests: 3})
		identicalLU(t, "armed fault-free run", base, fact, mt)
		if rep.Elapsed < 60*time.Millisecond {
			t.Errorf("%v: run took %v, too short to outlast a three-request budget several times over", mode, rep.Elapsed)
		}
	}
}
