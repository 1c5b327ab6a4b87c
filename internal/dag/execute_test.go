package dag

import (
	"math/rand"
	"testing"

	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// applyLU executes one LU task on the tiled matrix.
func applyLU(a *matrix.Dense, t Task) error {
	l := int(t.L)
	switch t.Kind {
	case GETRF:
		return tile.Getrf(a.Tile(l, l))
	case TRSMCol:
		tile.Trsm(tile.Right, tile.Upper, tile.NoTrans, tile.NonUnit, 1, a.Tile(l, l), a.Tile(int(t.I), l))
	case TRSMRow:
		tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.Unit, 1, a.Tile(l, l), a.Tile(l, int(t.I)))
	case GEMMLU:
		tile.Gemm(tile.NoTrans, tile.NoTrans, -1, a.Tile(int(t.I), l), a.Tile(l, int(t.J)), 1, a.Tile(int(t.I), int(t.J)))
	}
	return nil
}

// applyChol executes one Cholesky task on the tiled symmetric matrix.
func applyChol(a *matrix.SymmetricLower, t Task) error {
	l := int(t.L)
	switch t.Kind {
	case POTRF:
		return tile.Potrf(a.Tile(l, l))
	case TRSMChol:
		tile.Trsm(tile.Right, tile.Lower, tile.TransT, tile.NonUnit, 1, a.Tile(l, l), a.Tile(int(t.I), l))
	case SYRK:
		tile.Syrk(tile.Lower, tile.NoTrans, -1, a.Tile(int(t.I), l), 1, a.Tile(int(t.I), int(t.I)))
	case GEMMChol:
		tile.Gemm(tile.NoTrans, tile.TransT, -1, a.Tile(int(t.I), l), a.Tile(int(t.J), l), 1, a.Tile(int(t.I), int(t.J)))
	}
	return nil
}

// runRandomOrder executes the graph by repeatedly picking a random ready task
// (all dependencies done). This validates that the structural dependencies
// are sufficient for correctness in any legal interleaving.
func runRandomOrder(t *testing.T, g Graph, rng *rand.Rand, apply func(Task) error) {
	t.Helper()
	n := g.NumTasks()
	remaining := make([]int, n)
	ready := make([]int, 0, n)
	ForEachTask(g, func(task Task) {
		id := g.ID(task)
		remaining[id] = g.NumDependencies(task)
		if remaining[id] == 0 {
			ready = append(ready, id)
		}
	})
	done := 0
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		id := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		task := g.TaskOf(id)
		if err := apply(task); err != nil {
			t.Fatalf("%s: task %v failed: %v", g.Name(), task, err)
		}
		done++
		g.Successors(task, func(s Task) {
			sid := g.ID(s)
			remaining[sid]--
			if remaining[sid] == 0 {
				ready = append(ready, sid)
			}
		})
	}
	if done != n {
		t.Fatalf("%s: executed %d of %d tasks — dependency deadlock", g.Name(), done, n)
	}
}

func TestLUDAGExecutesCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, mt := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 3; trial++ {
			orig := matrix.NewDiagDominant(mt, 6, int64(mt*10+trial))
			a := matrix.NewDiagDominant(mt, 6, int64(mt*10+trial))
			g := NewLU(mt)
			runRandomOrder(t, g, rng, func(task Task) error { return applyLU(a, task) })
			if res := matrix.ResidualLU(orig, a); res > 1e-11 {
				t.Fatalf("mt=%d trial=%d: residual %g", mt, trial, res)
			}
		}
	}
}

func TestCholeskyDAGExecutesCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, mt := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 3; trial++ {
			orig := matrix.NewSPD(mt, 6, int64(mt*10+trial))
			a := matrix.NewSPD(mt, 6, int64(mt*10+trial))
			g := NewCholesky(mt)
			runRandomOrder(t, g, rng, func(task Task) error { return applyChol(a, task) })
			if res := matrix.ResidualCholesky(orig, a); res > 1e-11 {
				t.Fatalf("mt=%d trial=%d: residual %g", mt, trial, res)
			}
		}
	}
}
