package dag

import (
	"fmt"
	"math/rand"
	"testing"

	"anybc/internal/matrix"
	"anybc/internal/tile"
)

func solveGraphs(mt, nrhs int) []Graph {
	return []Graph{NewLUSolve(mt, nrhs), NewCholeskySolve(mt, nrhs)}
}

func TestSolveNumTasks(t *testing.T) {
	for mt := 1; mt <= 10; mt++ {
		half := mt * (mt - 1) / 2
		lu := NewLUSolve(mt, 2)
		if got, want := lu.NumTasks(), NewLU(mt).NumTasks()+3*mt+2*half; got != want {
			t.Errorf("LUSolve(%d): NumTasks = %d, want %d", mt, got, want)
		}
		ch := NewCholeskySolve(mt, 2)
		if got, want := ch.NumTasks(), NewCholesky(mt).NumTasks()+3*mt+2*half; got != want {
			t.Errorf("CholeskySolve(%d): NumTasks = %d, want %d", mt, got, want)
		}
	}
}

func TestSolveIDRoundtrip(t *testing.T) {
	for mt := 1; mt <= 8; mt++ {
		for _, g := range solveGraphs(mt, 3) {
			seen := make([]bool, g.NumTasks())
			count := 0
			ForEachTask(g, func(task Task) {
				id := g.ID(task)
				if id < 0 || id >= g.NumTasks() || seen[id] {
					t.Fatalf("%s mt=%d: bad or duplicate id %d for %v", g.Name(), mt, id, task)
				}
				seen[id] = true
				if back := g.TaskOf(id); back != task {
					t.Fatalf("%s mt=%d: TaskOf(ID(%v)) = %v", g.Name(), mt, task, back)
				}
				count++
			})
			if count != g.NumTasks() {
				t.Fatalf("%s mt=%d: visited %d of %d tasks", g.Name(), mt, count, g.NumTasks())
			}
		}
	}
}

func TestSolveDepsSuccsAreInverse(t *testing.T) {
	for mt := 1; mt <= 6; mt++ {
		for _, g := range solveGraphs(mt, 1) {
			succ := map[string]bool{}
			ForEachTask(g, func(task Task) {
				g.Successors(task, func(s Task) {
					succ[fmt.Sprint(task, "->", s)] = true
				})
			})
			dep := map[string]bool{}
			ForEachTask(g, func(task Task) {
				g.Dependencies(task, func(d Task) {
					dep[fmt.Sprint(d, "->", task)] = true
				})
			})
			if len(succ) != len(dep) {
				t.Fatalf("%s mt=%d: %d successor edges vs %d dependency edges",
					g.Name(), mt, len(succ), len(dep))
			}
			for e := range dep {
				if !succ[e] {
					t.Fatalf("%s mt=%d: edge %s missing from successors", g.Name(), mt, e)
				}
			}
		}
	}
}

func TestSolveTopologicalAndDepCounts(t *testing.T) {
	for mt := 1; mt <= 7; mt++ {
		for _, g := range solveGraphs(mt, 2) {
			visited := make([]bool, g.NumTasks())
			ForEachTask(g, func(task Task) {
				n := 0
				g.Dependencies(task, func(d Task) {
					n++
					if !visited[g.ID(d)] {
						t.Fatalf("%s mt=%d: %v before dependency %v", g.Name(), mt, task, d)
					}
				})
				if g.NumDependencies(task) != n {
					t.Fatalf("%s mt=%d: NumDependencies(%v) = %d, want %d",
						g.Name(), mt, task, g.NumDependencies(task), n)
				}
				visited[g.ID(task)] = true
			})
		}
	}
}

func TestSolveTotalFlopsMatchesSum(t *testing.T) {
	for _, g := range solveGraphs(6, 3) {
		sum := 0.0
		ForEachTask(g, func(task Task) { sum += g.Flops(task, 5) })
		total := g.TotalFlops(5)
		if d := total - sum; d > 1e-9*total || d < -1e-9*total {
			t.Errorf("%s: TotalFlops %v != sum %v", g.Name(), total, sum)
		}
	}
}

// execSolve executes the combined factor+solve graph in random ready order
// with the real kernels, on explicit tile stores for the matrix, Y and X.
func execSolve(t *testing.T, g Graph, mt, b, nrhs int, sym bool, seed int64) matrix.RHS {
	t.Helper()
	var dense *matrix.Dense
	var symm *matrix.SymmetricLower
	if sym {
		symm = matrix.NewSPD(mt, b, seed)
	} else {
		dense = matrix.NewDiagDominant(mt, b, seed)
	}
	y := matrix.NewRHS(mt, b, nrhs)
	y.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(seed+5, gi, k) })
	x := matrix.NewRHS(mt, b, nrhs)

	mtile := func(i, j int) *tile.Tile {
		if sym {
			return symm.Tile(i, j)
		}
		return dense.Tile(i, j)
	}
	apply := func(task Task) error {
		i, j := int(task.I), int(task.J)
		switch task.Kind {
		case FTRSM:
			if sym {
				tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.NonUnit, 1, mtile(i, i), y[i])
			} else {
				tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.Unit, 1, mtile(i, i), y[i])
			}
		case FGEMM:
			tile.Gemm(tile.NoTrans, tile.NoTrans, -1, mtile(i, j), y[j], 1, y[i])
		case BCOPY:
			x[i].CopyFrom(y[i])
		case BGEMM:
			if sym {
				tile.Gemm(tile.TransT, tile.NoTrans, -1, mtile(j, i), x[j], 1, x[i])
			} else {
				tile.Gemm(tile.NoTrans, tile.NoTrans, -1, mtile(i, j), x[j], 1, x[i])
			}
		case BTRSM:
			if sym {
				tile.Trsm(tile.Left, tile.Lower, tile.TransT, tile.NonUnit, 1, mtile(i, i), x[i])
			} else {
				tile.Trsm(tile.Left, tile.Upper, tile.NoTrans, tile.NonUnit, 1, mtile(i, i), x[i])
			}
		default:
			if sym {
				return applyChol(symm, task)
			}
			return applyLU(dense, task)
		}
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	runRandomOrder(t, g, rng, apply)
	return x
}

// TestLUSolveExecutesCorrectly builds A·xTrue = B, runs the combined DAG in
// random order, and checks the recovered solution.
func TestLUSolveExecutesCorrectly(t *testing.T) {
	for _, mt := range []int{1, 2, 3, 6} {
		const b, nrhs = 5, 2
		a := matrix.NewDiagDominant(mt, b, 3)
		xTrue := matrix.NewRHS(mt, b, nrhs)
		xTrue.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(9, gi, k) })
		rhs := a.MulRHS(xTrue)

		// Sequential reference through matrix package.
		ref := matrix.NewDiagDominant(mt, b, 3)
		if err := matrix.FactorLU(ref); err != nil {
			t.Fatal(err)
		}
		matrix.SolveLU(ref, rhs)
		if d := rhs.MaxAbsDiff(xTrue); d > 1e-9 {
			t.Fatalf("mt=%d: sequential solve error %g", mt, d)
		}

		// DAG execution must reproduce the same solution. Patch the RHS the
		// DAG uses: execSolve generates its own B, so instead run it through
		// the same generator and compare against a matching reference.
		g := NewLUSolve(mt, nrhs)
		x := execSolve(t, g, mt, b, nrhs, false, 3)
		bGen := matrix.NewRHS(mt, b, nrhs)
		bGen.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(3+5, gi, k) })
		ref2 := matrix.NewDiagDominant(mt, b, 3)
		if err := matrix.FactorLU(ref2); err != nil {
			t.Fatal(err)
		}
		matrix.SolveLU(ref2, bGen)
		if d := x.MaxAbsDiff(bGen); d > 1e-10 {
			t.Fatalf("mt=%d: DAG solve differs from sequential by %g", mt, d)
		}
	}
}

func TestCholeskySolveExecutesCorrectly(t *testing.T) {
	for _, mt := range []int{1, 2, 3, 6} {
		const b, nrhs = 5, 2
		g := NewCholeskySolve(mt, nrhs)
		x := execSolve(t, g, mt, b, nrhs, true, 4)

		bGen := matrix.NewRHS(mt, b, nrhs)
		bGen.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(4+5, gi, k) })
		ref := matrix.NewSPD(mt, b, 4)
		if err := matrix.FactorCholesky(ref); err != nil {
			t.Fatal(err)
		}
		matrix.SolveCholesky(ref, bGen)
		if d := x.MaxAbsDiff(bGen); d > 1e-10 {
			t.Fatalf("mt=%d: DAG solve differs from sequential by %g", mt, d)
		}
	}
}

func TestSolveCriticalPath(t *testing.T) {
	// The solve phase extends the critical path: forward then backward
	// substitution add at least 2·mt tasks beyond the factorization spine.
	for _, mt := range []int{2, 5, 8} {
		base := criticalPathTasks(NewLU(mt))
		withSolve := criticalPathTasks(NewLUSolve(mt, 1))
		if withSolve < base+2*mt {
			t.Errorf("mt=%d: solve critical path %d, want >= %d", mt, withSolve, base+2*mt)
		}
		cp := CriticalPathFlops(NewLUSolve(mt, 1), 8)
		if cp <= CriticalPathFlops(NewLU(mt), 8) {
			t.Errorf("mt=%d: flop-weighted critical path did not grow", mt)
		}
	}
}

func TestSolveKindStrings(t *testing.T) {
	for _, k := range []Kind{FTRSM, FGEMM, BCOPY, BGEMM, BTRSM} {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("Kind %d String = %q", k, s)
		}
	}
}

func TestSolvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLUSolve with nrhs=0 did not panic")
		}
	}()
	NewLUSolve(3, 0)
}
