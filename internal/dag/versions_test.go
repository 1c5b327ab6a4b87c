package dag

import "testing"

// outputVersions returns, by position, the version (write epoch) of the tile
// each task of g writes: how many tasks wrote that tile before it. The
// inference orders every writer of a tile after the one before it, so this is
// the version the runtime tags the tile with.
func outputVersions(g Graph) []int32 {
	writes := map[[2]int]int32{}
	var ver []int32
	ForEachTask(g, func(t Task) {
		i, j := g.OutputTile(t)
		ver = append(ver, writes[[2]int{i, j}])
		writes[[2]int{i, j}]++
	})
	return ver
}

// TestOutputVersionsLU: in right-looking LU every task's output version is
// its iteration — tile (i, j) is rewritten by one GEMM per iteration before
// its panel kernel finalizes it.
func TestOutputVersionsLU(t *testing.T) {
	g := NewLU(6)
	ver := outputVersions(g)
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
	ver := outputVersions(g)
	ForEachTask(g, func(task Task) {
		if got := ver[g.ID(task)]; got != task.L {
			t.Fatalf("%v: version %d, want iteration %d", task, got, task.L)
		}
	})
}

// TestInputVersionLU: GEMM(l, i, j) reads the panel tiles at their final
// versions, through the dependencies that wrote them, and no dependency
// writes a tile it does not read.
func TestInputVersionLU(t *testing.T) {
	g := NewLU(5)
	ver := outputVersions(g)
	task := Task{Kind: GEMMLU, L: 2, I: 4, J: 3}
	read := map[[2]int]int32{}
	g.Dependencies(task, func(d Task) {
		i, j := g.OutputTile(d)
		read[[2]int{i, j}] = ver[g.ID(d)]
	})
	// Input (4, 2) is the TRSMCol(2, 4) output: its chain is GEMM(0), GEMM(1),
	// TRSMCol(2) — version 2.
	if v, ok := read[[2]int{4, 2}]; !ok || v != 2 {
		t.Fatalf("input (4,2) of %v: version %d ok=%v, want 2", task, v, ok)
	}
	if _, ok := read[[2]int{0, 0}]; ok {
		t.Fatalf("%v has a dependency writing (0,0)", task)
	}
}
