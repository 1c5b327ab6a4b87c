package dag

import (
	"fmt"
	"reflect"
	"testing"
)

// builtGraphs returns the three graphs Build derives from a Program, at sizes
// covering every degenerate corner (one tile, fewer iterations than layers).
func builtGraphs() []Graph {
	var gs []Graph
	for mt := 1; mt <= 6; mt++ {
		gs = append(gs, NewLUSolve(mt, 2), NewCholeskySolve(mt, 1))
		for c := 1; c <= 4; c++ {
			gs = append(gs, NewReplicatedLU(mt, c))
		}
	}
	return gs
}

// edgeLists returns, per task, its Dependencies and its Successors in visit
// order.
func edgeLists(g Graph) (deps, succs map[Task][]Task) {
	deps, succs = map[Task][]Task{}, map[Task][]Task{}
	ForEachTask(g, func(t Task) {
		deps[t], succs[t] = []Task{}, []Task{}
		g.Dependencies(t, func(d Task) { deps[t] = append(deps[t], d) })
		g.Successors(t, func(s Task) { succs[t] = append(succs[t], s) })
	})
	return deps, succs
}

// TestClosedFormsMatchInference checks the two hand-derived dependency
// algebras that remain against the inference: Build of LU's and Cholesky's
// own programs has the same tasks, the same Dependencies and the same
// Successors in the same visit order — the order fixes plan.Dsts, hence the
// tree shape of every broadcast.
func TestClosedFormsMatchInference(t *testing.T) {
	for _, mt := range []int{1, 2, 3, 7, 12} {
		for _, closed := range []interface {
			Graph
			Program() Program
		}{NewLU(mt), NewCholesky(mt)} {
			name := fmt.Sprintf("%s mt=%d", closed.Name(), mt)
			built := Build(closed.Program())
			if built.NumTasks() != closed.NumTasks() {
				t.Fatalf("%s: inferred %d tasks, closed form %d", name, built.NumTasks(), closed.NumTasks())
			}
			wantDeps, wantSuccs := edgeLists(closed)
			gotDeps, gotSuccs := edgeLists(built)
			for task, want := range wantDeps {
				if got := gotDeps[task]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Dependencies(%v) closed form %v, inferred %v", name, task, want, got)
				}
				if got, want := gotSuccs[task], wantSuccs[task]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Successors(%v) closed form %v, inferred %v", name, task, want, got)
				}
			}
		}
	}
}

// TestBuiltGraphProperties runs the generic graph properties of dag_test.go
// over every built graph: ids are a bijection that ForEachTask enumerates in
// order, Dependencies and Successors are inverse relations without
// duplicates, every dependency is visited before its dependent, and
// NumDependencies is the visit count.
func TestBuiltGraphProperties(t *testing.T) {
	for _, g := range builtGraphs() {
		name := fmt.Sprintf("%s mt=%d", g.Name(), g.Tiles())
		next := 0
		ForEachTask(g, func(task Task) {
			if id := g.ID(task); id != next || g.TaskOf(id) != task {
				t.Fatalf("%s: visit %d is %v with id %d, TaskOf gives %v", name, next, task, id, g.TaskOf(id))
			}
			next++
		})
		if next != g.NumTasks() {
			t.Fatalf("%s: ForEachTask visited %d of %d tasks", name, next, g.NumTasks())
		}
		deps, succs := edgeLists(g)
		edges := map[[2]Task]bool{}
		for task, ds := range deps {
			if n := g.NumDependencies(task); n != len(ds) {
				t.Fatalf("%s: NumDependencies(%v) = %d, visits %d", name, task, n, len(ds))
			}
			for _, d := range ds {
				if g.ID(d) >= g.ID(task) {
					t.Fatalf("%s: %v depends on %v, which is not visited before it", name, task, d)
				}
				if edges[[2]Task{d, task}] {
					t.Fatalf("%s: duplicate dependency %v -> %v", name, d, task)
				}
				edges[[2]Task{d, task}] = true
			}
		}
		nsucc := 0
		for task, ss := range succs {
			for k, s := range ss {
				if !edges[[2]Task{task, s}] {
					t.Fatalf("%s: successor edge %v -> %v is no dependency", name, task, s)
				}
				if k > 0 && g.ID(ss[k-1]) >= g.ID(s) {
					t.Fatalf("%s: successors of %v out of program order: %v", name, task, ss)
				}
				nsucc++
			}
		}
		if nsucc != len(edges) {
			t.Fatalf("%s: %d successor edges vs %d dependency edges", name, nsucc, len(edges))
		}
	}
}

// TestFlopsDependOnKindAlone holds all eight graphs to what runtime.RunPlan
// relies on when it prices a node's work as (kernels dispatched per kind) ×
// (flops of that kind): a task's flop count is a function of its kind and the
// tile size, never of its indices.
func TestFlopsDependOnKindAlone(t *testing.T) {
	const b = 8
	for _, g := range append(builtGraphs(), graphs(5)...) {
		ForEachTask(g, func(task Task) {
			if got, want := g.Flops(Task{Kind: task.Kind}, b), g.Flops(task, b); got != want {
				t.Fatalf("%s mt=%d: Flops(%v) = %g, but %g for its kind alone",
					g.Name(), g.Tiles(), task, want, got)
			}
		})
	}
}

// TestBuildDuplicates pins what Build does with a program that repeats
// itself. A task reading the tile it also writes, or the same tile twice,
// gets one edge per producer — every consumer of Dependencies counts one
// release per visit, so a doubled edge would deadlock or double-release. A
// task submitted twice is rejected: ID could not tell the two apart.
func TestBuildDuplicates(t *testing.T) {
	a, b, c := Task{Kind: GETRF}, Task{Kind: TRSMCol}, Task{Kind: GEMMLU}
	p := Program{
		Name:  "dup",
		Tiles: 1,
		Tasks: func(submit func(Task)) { submit(a); submit(b); submit(c) },
		// a and c write tile (0,0), b writes (1,0); c reads (1,0) twice and
		// also lists its own output tile.
		OutputTile: func(t Task) (int, int) {
			if t == b {
				return 1, 0
			}
			return 0, 0
		},
		InputTiles: func(t Task, visit func(i, j int)) {
			if t == c {
				visit(1, 0)
				visit(0, 0)
				visit(1, 0)
			}
		},
		Flops: func(Task, int) float64 { return 1 },
	}
	g := Build(p)
	deps, succs := edgeLists(g)
	if want := []Task{b, a}; !reflect.DeepEqual(deps[c], want) || g.NumDependencies(c) != 2 {
		t.Errorf("Dependencies(c) = %v (NumDependencies %d), want %v once each", deps[c], g.NumDependencies(c), want)
	}
	if want := []Task{c}; !reflect.DeepEqual(succs[a], want) || !reflect.DeepEqual(succs[b], want) {
		t.Errorf("Successors(a) = %v, Successors(b) = %v, want %v for both", succs[a], succs[b], want)
	}

	p.Tasks = func(submit func(Task)) { submit(a); submit(b); submit(a) }
	defer func() {
		if recover() == nil {
			t.Error("Build accepted a program that submits a task twice")
		}
	}()
	Build(p)
}
