package runtime

import (
	"fmt"
	"slices"
	"testing"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/plan"
	"anybc/internal/sched"
	"anybc/internal/tile"
)

// callbacks counts the structural calls into a program: its iterations run
// and the OutputTile and InputTiles visits of each task.
type callbacks struct {
	iterations   map[int]int
	outputs, ins map[dag.Task]int
}

// counted returns g rebuilt from its program with every structural callback
// counted.
func counted(g dag.Graph) (dag.Graph, *callbacks) {
	c := &callbacks{iterations: map[int]int{}, outputs: map[dag.Task]int{}, ins: map[dag.Task]int{}}
	p := g.Program()
	tasks, output, inputs := p.Tasks, p.OutputTile, p.InputTiles
	p.Tasks = func(l int, submit func(dag.Task)) { c.iterations[l]++; tasks(l, submit) }
	p.OutputTile = func(t dag.Task) (int, int) { c.outputs[t]++; return output(t) }
	p.InputTiles = func(t dag.Task, visit func(i, j int)) { c.ins[t]++; inputs(t, visit) }
	return dag.Build(p), c
}

// most returns the largest count of each kind of call.
func (c *callbacks) most() (iteration, output, inputs int) {
	for _, n := range c.iterations {
		iteration = max(iteration, n)
	}
	for _, n := range c.outputs {
		output = max(output, n)
	}
	for _, n := range c.ins {
		inputs = max(inputs, n)
	}
	return iteration, output, inputs
}

// total returns the number of calls counted.
func (c *callbacks) total() int {
	n := 0
	for _, counts := range []map[dag.Task]int{c.outputs, c.ins} {
		for _, k := range counts {
			n += k
		}
	}
	for _, k := range c.iterations {
		n += k
	}
	return n
}

// planCase is one (graph, distribution) pair Compile takes.
type planCase struct {
	name string
	g    dag.Graph
	d    dist.Distribution
}

// planCases: every graph constructor of internal/dag × the four scheme
// families, at two sizes. The replicated LU is no Factor entry point's graph,
// but Compile takes any graph, and Run any plan.
func planCases(t *testing.T) []planCase {
	t.Helper()
	gcrm, err := core.New(core.GCRM, 7, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schemes := []dist.Distribution{dist.NewTwoDBC(2, 3), dist.NewG2DBC(5), dist.NewSBCPair(4), gcrm}
	var cases []planCase
	for _, base := range schemes {
		for _, mt := range []int{4, 7} {
			add := func(g dag.Graph, d dist.Distribution) {
				cases = append(cases, planCase{fmt.Sprintf("%s/mt=%d/%s", g.Name(), mt, d.Name()), g, d})
			}
			add(dag.NewLU(mt), base)
			add(dag.NewCholesky(mt), base)
			for _, c := range []int{1, 2} {
				add(dag.NewReplicatedLU(mt, c), dist.NewReplicated(base, c, mt))
			}
		}
	}
	return cases
}

// TestPlanEqualsGraph is the plan-equivalence property: task by task, the
// compiled plan holds exactly what the materialized graph yields — owner,
// version, dependency count, input references in InputTiles order, same-node
// successors and distinct remote destinations in Successors first-visit
// order, the scheduler key — and every slot its producer,
// waiters and reader count; the Succs and Waiters that release a task add up
// to its dependency count. Compile runs each iteration of the
// program twice, once to lay the tasks out and once to infer them, and calls
// each task's OutputTile and InputTiles twice: to infer its dependencies, then
// to place it or to resolve its references.
func TestPlanEqualsGraph(t *testing.T) {
	for _, c := range planCases(t) {
		t.Run(c.name, func(t *testing.T) {
			g, d := c.g, c.d
			cg, calls := counted(g)
			pl, err := plan.Compile(cg, d)
			if err != nil {
				t.Fatal(err)
			}
			if iteration, output, inputs := calls.most(); iteration > 2 || output > 2 || inputs > 2 {
				t.Fatalf("Compile ran an iteration %d times, asked a task's output tile %d times and visited its input tiles %d times",
					iteration, output, inputs)
			}
			if _, n := pl.Tasks(pl.Nodes() - 1); int(n) != g.NumTasks() || pl.Nodes() != d.Nodes() {
				t.Fatalf("plan has %d tasks on %d nodes, graph %d on %d", n, pl.Nodes(), g.NumTasks(), d.Nodes())
			}
			ver := outputVersions(g)
			ownerOf := func(tk dag.Task) int { return d.Owner(g.OutputTile(tk)) }

			// Each node's tasks, in ForEachTask order.
			owned := make([][]dag.Task, d.Nodes())
			dag.ForEachTask(g, func(tk dag.Task) { owned[ownerOf(tk)] = append(owned[ownerOf(tk)], tk) })
			planOf := map[dag.Task]int32{}
			for rank := range owned {
				lo, hi := pl.Tasks(rank)
				if int(hi-lo) != len(owned[rank]) {
					t.Fatalf("node %d: plan gives %d tasks, graph %d", rank, hi-lo, len(owned[rank]))
				}
				for k, tk := range owned[rank] {
					if pl.Task(lo+int32(k)) != tk {
						t.Fatalf("node %d task %d = %v, ForEachTask order gives %v", rank, k, pl.Task(lo+int32(k)), tk)
					}
					planOf[tk] = lo + int32(k)
				}
			}
			coords := func(tl int32) [2]int { i, j := pl.TileCoords(tl); return [2]int{i, j} }
			waiters := map[int32][]int32{} // slot -> expected waiters
			readers := map[int32]int32{}
			slotOwner := map[int32]int32{} // slot -> 1 + the task it awaits

			dag.ForEachTask(g, func(tk dag.Task) {
				pt, rank := planOf[tk], ownerOf(tk)
				oi, oj := g.OutputTile(tk)
				if lo, hi := pl.Tasks(rank); pt < lo || pt >= hi || coords(pl.Out(pt)) != [2]int{oi, oj} {
					t.Fatalf("%v: plan task %d tile %v, graph owner %d's tasks [%d,%d) tile (%d,%d)", tk, pt, coords(pl.Out(pt)), rank, lo, hi, oi, oj)
				}
				if tlo, thi := pl.Tiles(rank); pl.Out(pt) < tlo || pl.Out(pt) >= thi {
					t.Fatalf("%v: output tile %d outside node %d's tiles [%d,%d)", tk, pl.Out(pt), rank, tlo, thi)
				}
				if pl.Version(pt) != ver[g.ID(tk)] {
					t.Fatalf("%v: plan version %d, the dependencies give %d", tk, pl.Version(pt), ver[g.ID(tk)])
				}
				if pl.Producer(int32(oi), int32(oj), pl.Version(pt)) != pt {
					t.Fatalf("%v: Producer of its own output version is task %d", tk, pl.Producer(int32(oi), int32(oj), pl.Version(pt)))
				}
				if pl.Key(pt) != sched.Key(tk) {
					t.Fatalf("%v: key %d, want %d", tk, pl.Key(pt), sched.Key(tk))
				}

				if int(pl.NumDeps(pt)) != g.NumDependencies(tk) {
					t.Fatalf("%v: %d dependencies in the plan, NumDependencies %d", tk, pl.NumDeps(pt), g.NumDependencies(tk))
				}
				g.Dependencies(tk, func(dep dag.Task) {
					if ownerOf(dep) != rank {
						slot := pl.SlotAt(planOf[dep], rank)
						waiters[slot] = append(waiters[slot], pt)
					}
				})

				refs := pl.Inputs(pt)
				k := 0
				g.InputTiles(tk, func(i, j int) {
					if k >= len(refs) {
						t.Fatalf("%v: %d input references, graph visits more", tk, len(refs))
					}
					ref := refs[k]
					k++
					if d.Owner(i, j) == rank {
						if ref < 0 || coords(ref) != [2]int{i, j} {
							t.Fatalf("%v: local input (%d,%d) compiled to ref %d", tk, i, j, ref)
						}
						return
					}
					v := inputVersion(g, ver, tk, i, j)
					if ref >= 0 || v < 0 {
						t.Fatalf("%v: remote input (%d,%d) compiled to ref %d (version %d)", tk, i, j, ref, v)
					}
					if slo, shi := pl.Slots(rank); ^ref < slo || ^ref >= shi {
						t.Fatalf("%v: slot %d outside node %d's slots [%d,%d)", tk, ^ref, rank, slo, shi)
					}
					if producer := pl.Producer(int32(i), int32(j), v); producer < 0 || pl.SlotAt(producer, rank) != ^ref {
						t.Fatalf("%v: remote input (%d,%d)v%d compiled to slot %d, not its producer's", tk, i, j, v, ^ref)
					}
					readers[^ref]++
				})
				if k != len(refs) {
					t.Fatalf("%v: %d input references, graph visits %d", tk, len(refs), k)
				}

				var succs []int32
				var dsts []int
				g.Successors(tk, func(s dag.Task) {
					so := ownerOf(s)
					if so == rank {
						succs = append(succs, planOf[s])
						return
					}
					for _, have := range dsts {
						if have == so {
							return
						}
					}
					dsts = append(dsts, so)
				})
				if !slices.Equal(pl.Succs(pt), succs) {
					t.Fatalf("%v: same-node successors %v, graph gives %v", tk, pl.Succs(pt), succs)
				}
				if !slices.Equal(pl.Dsts(pt), dsts) {
					t.Fatalf("%v: destinations %v, Successors first-visit order gives %v", tk, pl.Dsts(pt), dsts)
				}
				for _, dst := range dsts {
					slot := pl.SlotAt(pt, dst)
					if slo, shi := pl.Slots(dst); slot < slo || slot >= shi || slotOwner[slot] != 0 {
						t.Fatalf("%v: node %d awaits it in slot %d (its slots [%d,%d), named before by task %d)", tk, dst, slot, slo, shi, slotOwner[slot]-1)
					}
					slotOwner[slot] = pt + 1
				}
			})

			// The edges a run releases a task through — a same-node
			// predecessor's Succs, an awaited version's slot Waiters — must
			// add up to its dependency count, over all its predecessors.
			released := make([]int, g.NumTasks())
			slots := 0
			for rank := 0; rank < d.Nodes(); rank++ {
				lo, hi := pl.Tasks(rank)
				for q := lo; q < hi; q++ {
					for _, s := range pl.Succs(q) {
						released[s]++
					}
				}
				lo, hi = pl.Slots(rank)
				slots += int(hi - lo)
				for s := lo; s < hi; s++ {
					for _, w := range pl.Waiters(s) {
						released[w]++
					}
					if !slices.Equal(pl.Waiters(s), waiters[s]) {
						t.Fatalf("slot %d: waiters %v, the dependencies give %v", s, pl.Waiters(s), waiters[s])
					}
					if pl.SlotReaders(s, s+1)[0] != readers[s] {
						t.Fatalf("slot %d: %d readers, the input references give %d", s, pl.SlotReaders(s, s+1)[0], readers[s])
					}
				}
			}
			if slots != len(waiters) {
				t.Fatalf("%d slots, %d awaited (node, producer) pairs", slots, len(waiters))
			}
			for pt, n := range released {
				if n != int(pl.NumDeps(int32(pt))) {
					t.Fatalf("%v: released %d times through Succs and Waiters, NumDeps %d", pl.Task(int32(pt)), n, pl.NumDeps(int32(pt)))
				}
			}
		})
	}
}

// TestRunPlanNeverWalksTheGraph: a fault-free RunPlan reads structure from
// the plan alone — not one call into the program's structure — and produces
// the factors Run does, bit for bit.
func TestRunPlanNeverWalksTheGraph(t *testing.T) {
	const mt, b = 8, 4
	d := dist.NewG2DBC(5)
	want, wantRep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 5), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cg, calls := counted(dag.NewLU(mt))
	pl, err := plan.Compile(cg, d)
	if err != nil {
		t.Fatal(err)
	}
	compiled := calls.total()
	for run := 0; run < 2; run++ { // a plan serves any number of runs
		got := matrix.NewDense(mt, mt, b)
		rep, err := RunPlan(pl, GenDiagDominant(mt, b, 5), LUKernel, Options{Workers: 2},
			func(i, j int, tl *tile.Tile) { got.SetTile(i, j, tl.Clone()) })
		if err != nil {
			t.Fatal(err)
		}
		if total := calls.total(); total != compiled {
			t.Fatalf("RunPlan made %d structural calls into the program", total-compiled)
		}
		identicalLU(t, fmt.Sprintf("RunPlan %d", run), want, got, mt)
		if rep.Stats.TotalMessages() != wantRep.Stats.TotalMessages() || rep.Stats.TotalBytes() != wantRep.Stats.TotalBytes() {
			t.Fatalf("RunPlan sent %d messages / %d bytes, Run %d / %d", rep.Stats.TotalMessages(),
				rep.Stats.TotalBytes(), wantRep.Stats.TotalMessages(), wantRep.Stats.TotalBytes())
		}
	}
}
