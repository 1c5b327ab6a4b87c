package dag

import (
	"fmt"
	"testing"
)

func graphs(mt int) []Graph {
	return []Graph{NewLU(mt), NewCholesky(mt)}
}

func TestNumTasks(t *testing.T) {
	// LU: mt GETRF + 2·Σk TRSM + Σk² GEMM; Cholesky: mt POTRF + Σk TRSM +
	// Σk SYRK + ΣC(k,2) GEMM (k = mt-1-l).
	for mt := 1; mt <= 12; mt++ {
		sum1, sum2, sum3 := 0, 0, 0
		for l := 0; l < mt; l++ {
			k := mt - 1 - l
			sum1 += k
			sum2 += k * k
			sum3 += k * (k - 1) / 2
		}
		lu := NewLU(mt)
		if got, want := lu.NumTasks(), mt+2*sum1+sum2; got != want {
			t.Errorf("LU(%d).NumTasks = %d, want %d", mt, got, want)
		}
		ch := NewCholesky(mt)
		if got, want := ch.NumTasks(), mt+2*sum1+sum3; got != want {
			t.Errorf("Cholesky(%d).NumTasks = %d, want %d", mt, got, want)
		}
	}
}

// TestCholeskyTaskOfAtScale: TaskOf and ID invert each other over every task
// of a paper-scale graph.
func TestCholeskyTaskOfAtScale(t *testing.T) {
	g := NewCholesky(120)
	for id := 0; id < g.NumTasks(); id++ {
		if back := g.ID(g.TaskOf(id)); back != id {
			t.Fatalf("ID(TaskOf(%d)) = %d (%v)", id, back, g.TaskOf(id))
		}
	}
}

func TestIDRoundtrip(t *testing.T) {
	for mt := 1; mt <= 9; mt++ {
		for _, g := range graphs(mt) {
			seen := make([]bool, g.NumTasks())
			ForEachTask(g, func(task Task) {
				id := g.ID(task)
				if id < 0 || id >= g.NumTasks() {
					t.Fatalf("%s mt=%d: id %d out of range for %v", g.Name(), mt, id, task)
				}
				if seen[id] {
					t.Fatalf("%s mt=%d: id %d assigned twice (%v)", g.Name(), mt, id, task)
				}
				seen[id] = true
				back := g.TaskOf(id)
				if back != task {
					t.Fatalf("%s mt=%d: TaskOf(ID(%v)) = %v", g.Name(), mt, task, back)
				}
			})
			for id, ok := range seen {
				if !ok {
					t.Fatalf("%s mt=%d: id %d never produced (task %v)", g.Name(), mt, id, g.TaskOf(id))
				}
			}
		}
	}
}

// TestDepsSuccsAreInverse checks exhaustively that s ∈ Successors(t) iff
// t ∈ Dependencies(s).
func TestDepsSuccsAreInverse(t *testing.T) {
	for mt := 1; mt <= 7; mt++ {
		for _, g := range graphs(mt) {
			succOf := map[string]bool{}
			ForEachTask(g, func(task Task) {
				g.Successors(task, func(s Task) {
					succOf[fmt.Sprint(task, "->", s)] = true
				})
			})
			depEdges := map[string]bool{}
			ForEachTask(g, func(task Task) {
				g.Dependencies(task, func(d Task) {
					depEdges[fmt.Sprint(d, "->", task)] = true
				})
			})
			if len(succOf) != len(depEdges) {
				t.Fatalf("%s mt=%d: %d successor edges vs %d dependency edges",
					g.Name(), mt, len(succOf), len(depEdges))
			}
			for e := range depEdges {
				if !succOf[e] {
					t.Fatalf("%s mt=%d: dependency edge %s missing from successors", g.Name(), mt, e)
				}
			}
		}
	}
}

func TestNumDependenciesMatches(t *testing.T) {
	for mt := 1; mt <= 7; mt++ {
		for _, g := range graphs(mt) {
			ForEachTask(g, func(task Task) {
				n := 0
				g.Dependencies(task, func(Task) { n++ })
				if got := g.NumDependencies(task); got != n {
					t.Fatalf("%s mt=%d: NumDependencies(%v) = %d, visits %d",
						g.Name(), mt, task, got, n)
				}
			})
		}
	}
}

func TestForEachTaskIsTopological(t *testing.T) {
	for mt := 1; mt <= 8; mt++ {
		for _, g := range graphs(mt) {
			visited := make([]bool, g.NumTasks())
			ForEachTask(g, func(task Task) {
				g.Dependencies(task, func(d Task) {
					if !visited[g.ID(d)] {
						t.Fatalf("%s mt=%d: %v visited before its dependency %v",
							g.Name(), mt, task, d)
					}
				})
				visited[g.ID(task)] = true
			})
		}
	}
}

func TestInputTilesAreProducedByDeps(t *testing.T) {
	// Every input tile of a task at iteration l must be the output tile of
	// one of its dependencies (data flows only along edges).
	for mt := 2; mt <= 7; mt++ {
		for _, g := range graphs(mt) {
			ForEachTask(g, func(task Task) {
				if task.L == 0 {
					// At iteration 0 the inputs come from the initial matrix
					// content on panel tasks' owners; only the (0,0) factor
					// flows along an edge.
				}
				g.InputTiles(task, func(i, j int) {
					found := false
					g.Dependencies(task, func(d Task) {
						di, dj := g.OutputTile(d)
						if di == i && dj == j {
							found = true
						}
					})
					if !found && task.L > 0 {
						t.Fatalf("%s mt=%d: input (%d,%d) of %v not produced by any dependency",
							g.Name(), mt, i, j, task)
					}
					// At L == 0 the panel factor (0,0) must still flow.
					if !found && task.L == 0 && i == 0 && j == 0 && task.Kind != GETRF && task.Kind != POTRF {
						t.Fatalf("%s mt=%d: factor tile input of %v not produced by a dependency",
							g.Name(), mt, task)
					}
				})
			})
		}
	}
}

// unitFlops weighs every task of a graph at one flop, so CriticalPathFlops
// measures the longest path in tasks.
type unitFlops struct{ Graph }

func (u unitFlops) Flops(Task, int) float64 { return 1 }
func criticalPathTasks(g Graph) int         { return int(CriticalPathFlops(unitFlops{g}, 1)) }

func TestCriticalPathLength(t *testing.T) {
	// Right-looking LU and Cholesky both have the dependency spine
	// FACT(l) → TRSM(l, l+1) → UPDATE(l, l+1, l+1) → FACT(l+1),
	// giving a critical path of 3(mt-1)+1 tasks.
	for mt := 1; mt <= 10; mt++ {
		for _, g := range graphs(mt) {
			want := 3*(mt-1) + 1
			if got := criticalPathTasks(g); got != want {
				t.Errorf("%s mt=%d: critical path %d tasks, want %d", g.Name(), mt, got, want)
			}
		}
	}
}

func TestCriticalPathFlops(t *testing.T) {
	g := NewLU(4)
	b := 10
	cp := CriticalPathFlops(g, b)
	if cp <= 0 || cp > g.TotalFlops(b) {
		t.Fatalf("critical path flops %v outside (0, total=%v]", cp, g.TotalFlops(b))
	}
	// Single tile: critical path == total == one GETRF.
	g1 := NewLU(1)
	if cp := CriticalPathFlops(g1, b); cp != g1.TotalFlops(b) {
		t.Errorf("mt=1: cp %v != total %v", cp, g1.TotalFlops(b))
	}
}

func TestTotalFlopsMatchesSum(t *testing.T) {
	for mt := 1; mt <= 8; mt++ {
		for _, g := range graphs(mt) {
			sum := 0.0
			ForEachTask(g, func(task Task) { sum += g.Flops(task, 7) })
			total := g.TotalFlops(7)
			if diff := total - sum; diff > 1e-9*total || diff < -1e-9*total {
				t.Errorf("%s mt=%d: TotalFlops %v != sum %v", g.Name(), mt, total, sum)
			}
		}
	}
}

func TestTotalFlopsAsymptotics(t *testing.T) {
	// LU ≈ 2m³/3, Cholesky ≈ m³/3 for m = mt·b.
	mt, b := 40, 10
	m := float64(mt * b)
	lu := NewLU(mt).TotalFlops(b)
	if ratio := lu / (2 * m * m * m / 3); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("LU flops ratio %v", ratio)
	}
	ch := NewCholesky(mt).TotalFlops(b)
	if ratio := ch / (m * m * m / 3); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Cholesky flops ratio %v", ratio)
	}
}

func TestCommVolumeSingleNode(t *testing.T) {
	for _, g := range graphs(6) {
		if v := CommVolumeTiles(g, func(i, j int) int { return 0 }); v != 0 {
			t.Errorf("%s: single-node comm volume %d, want 0", g.Name(), v)
		}
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLU(0) },
		func() { NewCholesky(-1) },
		func() { NewLU(3).ID(Task{Kind: POTRF}) },
		func() { NewCholesky(3).ID(Task{Kind: GETRF}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestKindString(t *testing.T) {
	for k := GETRF; k <= GEMMChol; k++ {
		if s := k.String(); s == "" {
			t.Errorf("Kind %d has empty String", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind has empty String")
	}
}
