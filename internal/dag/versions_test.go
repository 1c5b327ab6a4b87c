package dag

import "testing"

// TestOutputVersionsLU: in right-looking LU every task's output version is
// its iteration — tile (i, j) is rewritten by one GEMM per iteration before
// its panel kernel finalizes it.
func TestOutputVersionsLU(t *testing.T) {
	g := NewLU(6)
	ver := OutputVersions(g)
	ForEachTask(g, func(task Task) {
		if got := ver[g.ID(task)]; got != task.L {
			t.Fatalf("%v: version %d, want iteration %d", task, got, task.L)
		}
	})
}

// TestOutputVersionsCholesky: the same identity for Cholesky, whose diagonal
// tiles pass through SYRK updates before POTRF.
func TestOutputVersionsCholesky(t *testing.T) {
	g := NewCholesky(6)
	ver := OutputVersions(g)
	ForEachTask(g, func(task Task) {
		if got := ver[g.ID(task)]; got != task.L {
			t.Fatalf("%v: version %d, want iteration %d", task, got, task.L)
		}
	})
}

// TestInputVersion: GEMM(l, i, j) reads the panel tiles at their final
// versions, and the version lookup reports initial content for tiles no
// dependency writes.
func TestInputVersionLU(t *testing.T) {
	g := NewLU(5)
	ver := OutputVersions(g)
	task := Task{Kind: GEMMLU, L: 2, I: 4, J: 3}
	// Input (4, 2) is the TRSMCol(2, 4) output: its chain is GEMM(0), GEMM(1),
	// TRSMCol(2) — version 2.
	v, ok := InputVersion(g, ver, task, 4, 2)
	if !ok || v != 2 {
		t.Fatalf("input (4,2) of %v: version %d ok=%v, want 2", task, v, ok)
	}
	if _, ok := InputVersion(g, ver, task, 0, 0); ok {
		t.Fatalf("%v has no dependency writing (0,0)", task)
	}
}
