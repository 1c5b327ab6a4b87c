package dag

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// builtGraphs returns the three graphs of this package, at sizes covering
// every degenerate corner (one tile, fewer iterations than layers).
func builtGraphs() []Graph {
	var gs []Graph
	for mt := 1; mt <= 6; mt++ {
		gs = append(gs, NewLU(mt), NewCholesky(mt))
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

// TestFlopsDependOnKindAlone holds all three graphs to what runtime.RunPlan
// relies on when it prices a node's work as (kernels dispatched per kind) ×
// (flops of that kind): a task's flop count is a function of its kind and the
// tile size, never of its indices.
func TestFlopsDependOnKindAlone(t *testing.T) {
	const b = 8
	for _, g := range builtGraphs() {
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
// task submitted twice is rejected at the first query by Task value: ID could
// not tell the two apart.
func TestBuildDuplicates(t *testing.T) {
	a, b, c := Task{Kind: GETRF}, Task{Kind: TRSMCol}, Task{Kind: GEMMLU}
	p := Program{
		Name:  "dup",
		Tiles: 1,
		Tasks: func(_ int, submit func(Task)) { submit(a); submit(b); submit(c) },
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

	p.Tasks = func(_ int, submit func(Task)) { submit(a); submit(b); submit(a) }
	defer func() {
		if recover() == nil {
			t.Error("Build accepted a program that submits a task twice")
		}
	}()
	Build(p).ID(a)
}

// chain is a program of n iterations, one task each: iteration l writes tile
// (l, 0) and reads what reads(l) visits.
func chain(n int, reads func(l int, visit func(i, j int))) Program {
	return Program{
		Name:       "chain",
		Tiles:      n,
		Iterations: n,
		Tasks:      func(l int, submit func(Task)) { submit(Task{Kind: GETRF, L: int32(l)}) },
		OutputTile: func(t Task) (int, int) { return int(t.L), 0 },
		InputTiles: func(t Task, visit func(i, j int)) { reads(int(t.L), visit) },
		Flops:      func(Task, int) float64 { return 1 },
	}
}

// TestInferenceHoldsTheStatement: a program that states iterations is held
// to the statement. A read of an output two iterations old, or a later
// iteration's task that depends on nothing, stops the inference with an error
// naming the task, and Build's queries panic with it.
func TestInferenceHoldsTheStatement(t *testing.T) {
	previous := func(l int, visit func(i, j int)) {
		if l > 0 {
			visit(l-1, 0)
		}
	}
	if w := Infer(chain(4, previous), nil); !func() bool {
		for w.Next() {
		}
		return w.Err() == nil && w.End() == 4
	}() {
		t.Fatalf("a chain that keeps the statement: %d tasks, error %v", w.End(), w.Err())
	}
	for _, c := range []struct {
		reads func(l int, visit func(i, j int))
		want  string
	}{
		{func(l int, visit func(i, j int)) {
			previous(l, visit)
			if l == 2 {
				visit(0, 0)
			}
		}, "GETRF(2) of iteration 2 uses tile (0, 0), last written before iteration 1"},
		{func(l int, visit func(i, j int)) {
			if l != 2 {
				previous(l, visit)
			}
		}, "GETRF(2) of iteration 2 depends on no earlier task"},
	} {
		w := Infer(chain(4, c.reads), nil)
		for w.Next() {
		}
		if err := w.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("inference error %v, want one containing %q", err, c.want)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("Build's query panicked with %v, want %q", r, c.want)
				}
			}()
			Build(chain(4, c.reads)).NumDependencies(Task{Kind: GETRF})
		}()
	}
}

// TestInferenceForgetsDoneIterations: a consumer that marks each task done
// once its successors are known holds two iterations of LU at most — the one
// whose successors are being inferred and that next one — and nothing at the
// end. Iteration l of LU(mt) has (mt−l)² tasks.
func TestInferenceForgetsDoneIterations(t *testing.T) {
	const mt = 30
	w := Infer(NewLU(mt).Program(), nil)
	peak := 0
	for pos := int32(0); w.Next(); {
		peak = max(peak, w.Live())
		for ; pos < w.Settled(); pos++ {
			w.DoneBefore(pos + 1)
		}
	}
	if want := mt*mt + (mt-1)*(mt-1); peak != want || w.Live() != 0 || w.Err() != nil {
		t.Fatalf("held %d tasks at most and %d at the end (error %v), want %d and 0", peak, w.Live(), w.Err(), want)
	}
}
