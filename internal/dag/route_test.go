package dag_test

import (
	"slices"
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
	"anybc/internal/simulate"
)

// TestRouteFilesTheOwnerFilteredWalk: what Route lists is, element for
// element, what walking the producer's successors in the materialized graph
// yields — the local ones are those the producer's node owns, the
// destinations are the distinct remote owners in first-visit order, and each
// destination's waiters are the successors it owns — and the three readers
// of the rule agree on the message count: CommVolumeTiles, the compiled
// plan's destination lists and the simulator.
func TestRouteFilesTheOwnerFilteredWalk(t *testing.T) {
	const mt = 12
	for _, base := range []dist.Distribution{dist.NewG2DBC(23), dist.NewTwoDBC(2, 3)} {
		for _, gd := range []struct {
			g dag.Graph
			d dist.Distribution
		}{
			{dag.NewLU(mt), base},
			{dag.NewCholesky(mt), base},
			{dag.NewReplicatedLU(mt, 2), dist.NewReplicated(base, 2, mt)},
		} {
			g, d := gd.g, gd.d
			messages := checkRoutes(t, g, d)
			if v := dag.CommVolumeTiles(g, d.Owner); v != messages {
				t.Errorf("%s under %s: CommVolumeTiles %d, the walks %d", g.Name(), d.Name(), v, messages)
			}
			pl, err := plan.Compile(g, d)
			if err != nil {
				t.Fatal(err)
			}
			var planned int64
			for pt := int32(0); pt < int32(g.NumTasks()); pt++ {
				planned += int64(len(pl.Dsts(pt)))
			}
			res, err := simulate.Run(g, 8, d, simulate.PaperMachine(), simulate.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if planned != messages || res.Messages != messages {
				t.Errorf("%s under %s: the plan lists %d destinations, the simulator sends %d messages, the walks give %d",
					g.Name(), d.Name(), planned, res.Messages, messages)
			}
		}
	}
}

// checkRoutes holds the route of every task of g under d to the filtered
// walks over the materialized successors and returns the destinations
// counted.
func checkRoutes(t *testing.T, g dag.Graph, d dist.Distribution) (messages int64) {
	t.Helper()
	owner := func(task dag.Task) int { return d.Owner(g.OutputTile(task)) }
	owned := func(task dag.Task, node int) []int32 {
		var out []int32
		g.Successors(task, func(succ dag.Task) {
			if owner(succ) == node {
				out = append(out, int32(g.ID(succ)))
			}
		})
		return out
	}
	partial := g.Program().ReducePartial
	w := dag.Infer(g.Program(), d.Owner)
	var r dag.Route
	for pos := int32(0); w.Next(); {
		first, settled := pos, w.Settled()
		succs, inBlock := 0, 0
		if pos < settled {
			inBlock = w.NumSuccs(pos, settled)
		}
		for ; pos < settled; pos++ {
			task := w.Task(pos)
			src := owner(task)
			var wantDsts []int
			n := 0
			g.Successors(task, func(succ dag.Task) {
				n++
				if o := owner(succ); o != src && !slices.Contains(wantDsts, o) {
					wantDsts = append(wantDsts, o)
				}
			})
			if got := w.NumSuccs(pos, pos+1); got != n {
				t.Fatalf("%s %v: NumSuccs %d, %d successors", g.Name(), task, got, n)
			}
			succs += n
			w.Route(pos, &r)
			if want := owned(task, src); !slices.Equal(r.Local, want) {
				t.Fatalf("%s %v: local successors %v, the filtered walk gives %v", g.Name(), task, r.Local, want)
			}
			if !slices.Equal(r.Dsts, wantDsts) {
				t.Fatalf("%s %v: destinations %v, first-visit order gives %v", g.Name(), task, r.Dsts, wantDsts)
			}
			for k, dst := range r.Dsts {
				if want := owned(task, dst); !slices.Equal(r.Waiters(k), want) {
					t.Fatalf("%s %v → node %d: waiters %v, the filtered walk gives %v", g.Name(), task, dst, r.Waiters(k), want)
				}
			}
			if want := len(wantDsts) == 1 && partial != nil && partial(task); r.Reduce != want {
				t.Fatalf("%s %v: reduce %v with %d destinations", g.Name(), task, r.Reduce, len(wantDsts))
			}
			messages += int64(len(wantDsts))
			w.DoneBefore(pos + 1)
		}
		if inBlock != succs {
			t.Fatalf("%s: NumSuccs(%d, %d) = %d, the tasks have %d successors", g.Name(), first, settled, inBlock, succs)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return messages
}
