package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// awaitQuiet waits until no engine goroutine is left and cl, when non-nil,
// has no payload in flight.
func awaitQuiet(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runs, others := engineGoroutines()
		inFlight := int64(0)
		if cl != nil {
			inFlight = cl.PoolOutstanding()
		}
		if runs == 0 && others == 0 && inFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the run: %d payloads in flight, %d goroutines in engine.run and %d more in the engine",
				inFlight, runs, others)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashFailsEveryCell is the failure axis of the product matrix:
// {flat, tree} × {Workers 1, 4} × {the private cluster RunPlan builds, a
// shared cluster}. The crash is a failing kernel: nothing injects faults any
// more, and a node that fails fails its run. In every cell the
// victim's kernel fails on one of its tasks, and the run returns within the
// test deadline with one error naming the node and the task. RunPlan fails a
// run whose private cluster still lends a payload after teardown, so that
// error is the proof its payloads drained; on the shared cluster the test
// reads the in-flight count itself. No engine goroutine outlives the run, and
// on the shared cluster a co-tenant runs beside the failing job and its
// factors stay the solo run's, bit for bit. One more cell runs the
// replicated LU graph, whose partial updates LUKernel refuses.
func TestCrashFailsEveryCell(t *testing.T) {
	const mt, b, victim = 10, 4, 3
	d := dist.NewG2DBC(7)
	pl, err := plans.get(shape{graph: graphLU, mt: mt}, d)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pl.Tasks(victim)
	doomed := pl.Task(lo + (hi-lo)/2)
	errBoom := errors.New("injected kernel failure")
	failing := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
		if task == doomed {
			return errBoom
		}
		return LUKernel(task, out, in)
	}
	gen := GenDiagDominant(mt, b, 17)
	solo, _, err := FactorLU(mt, b, d, gen, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
		for _, workers := range []int{1, 4} {
			for _, shared := range []bool{false, true} {
				where := "private"
				if shared {
					where = "shared"
				}
				t.Run(fmt.Sprintf("%s/workers=%d/%s", mode, workers, where), func(t *testing.T) {
					opt := Options{Workers: workers, Broadcast: mode}
					var cl *cluster.Cluster
					var coTenant *matrix.Dense
					coDone := make(chan error, 1)
					if shared {
						cl = cluster.NewWithOptions(d.Nodes(), cluster.Options{Broadcast: mode})
						defer cl.Close()
						opt.Cluster = cl
						go func() {
							var err error
							coTenant, _, err = FactorLU(mt, b, d, gen, Options{Workers: workers, Cluster: cl})
							coDone <- err
						}()
					}
					err := runWithDeadline(t, func() error {
						_, _, err := runPlanDense(pl, mt, b, gen, failing, opt)
						return err
					})
					root := fmt.Sprintf("node %d: %v: %v", victim, doomed, errBoom)
					if !errors.Is(err, errBoom) || strings.Count(err.Error(), errBoom.Error()) != 1 || !strings.Contains(err.Error(), root) {
						t.Fatalf("run returned %v, want one error %q", err, root)
					}
					if shared {
						if err := <-coDone; err != nil {
							t.Fatalf("co-tenant of a failed job failed: %v", err)
						}
						identicalLU(t, "co-tenant of a failed job", solo, coTenant, mt)
					}
					awaitQuiet(t, cl)
				})
			}
		}
	}

	// The replicated LU graph compiles and runs, but no kernel of this
	// package computes its partial updates: at mt = 2 and c = 2 its one
	// GEMM-part task is the first that fails, every later task depends on
	// it, and the panel tiles that reached its node before it failed are all
	// released.
	t.Run("replicated/workers=1/shared", func(t *testing.T) {
		const mt = 2
		g, d := dag.NewReplicatedLU(mt, 2), dist.NewReplicated(dist.NewG2DBC(4), 2, mt)
		var parts []dag.Task
		dag.ForEachTask(g, func(tk dag.Task) {
			if tk.Kind == dag.GEMMPart {
				parts = append(parts, tk)
			}
		})
		if len(parts) != 1 {
			t.Fatalf("%d GEMM-part tasks, want 1", len(parts))
		}
		cl := cluster.New(d.Nodes())
		defer cl.Close()
		gen := GenDiagDominant(mt, b, 17)
		err := runWithDeadline(t, func() error {
			_, err := Run(g, d, b, func(i, j int) *tile.Tile {
				if j >= mt {
					return tile.New(b, b) // a layer's accumulator
				}
				return gen(i, j)
			}, LUKernel, Options{Cluster: cl}, nil)
			return err
		})
		root := fmt.Sprintf("node %d: %v: runtime: not an LU task", d.Owner(g.OutputTile(parts[0])), parts[0])
		if err == nil || strings.Count(err.Error(), parts[0].String()) != 1 || !strings.Contains(err.Error(), root) {
			t.Fatalf("run returned %v, want one error %q", err, root)
		}
		awaitQuiet(t, cl)
	})
}

// TestChaosCrashRecordedOnce: a failing kernel fails the run with one error
// naming its node and task, and its interval is on the trace once, from the
// node that ran it. (A crash is a failing kernel now; the subtest keeps the
// name it had when an elastic cell ran beside it.)
func TestChaosCrashRecordedOnce(t *testing.T) {
	const mt, b, victim = 8, 4, 2
	d := dist.NewG2DBC(6)
	t.Run("elastic=false", func(t *testing.T) {
		pl, err := plans.get(shape{graph: graphLU, mt: mt}, d)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := pl.Tasks(victim)
		doomed := pl.Task(lo + 3)
		errBoom := errors.New("injected kernel failure")
		kern := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
			if task == doomed {
				return errBoom
			}
			return LUKernel(task, out, in)
		}
		rec := &trace.Recorder{}
		err = runWithDeadline(t, func() error {
			_, _, err := runPlanDense(pl, mt, b, GenDiagDominant(mt, b, 3), kern, Options{Recorder: rec})
			return err
		})
		root := fmt.Sprintf("node %d: %v: %v", victim, doomed, errBoom)
		if err == nil || strings.Count(err.Error(), errBoom.Error()) != 1 || !strings.Contains(err.Error(), root) {
			t.Fatalf("run returned %v, want one error %q", err, root)
		}
		var rows []trace.TaskEvent
		for _, ev := range rec.Tasks {
			if ev.Task == doomed {
				rows = append(rows, ev)
			}
		}
		if len(rows) != 1 || rows[0].Node != victim {
			t.Fatalf("trace rows of %v: %+v, want one from node %d", doomed, rows, victim)
		}
	})
}

// repeatOnce is a network that breaks the reliable-delivery contract once:
// it delivers the first hop it sees twice, and every other hop once.
type repeatOnce struct {
	once     sync.Once
	from, to int
	tag      cluster.Tag
}

func (n *repeatOnce) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	deliver(msg)
	n.once.Do(func() {
		n.from, n.to, n.tag = msg.From, msg.To, msg.Tag
		deliver(msg)
	})
}

// TestDuplicateDeliveryFailsTheRun: the network delivers every message
// exactly once, and the engine relies on it. A hop that arrives twice fails
// the run with one internal error naming the node and the tag — no panic, no
// second relay down the tree, and no engine goroutine left behind.
func TestDuplicateDeliveryFailsTheRun(t *testing.T) {
	const mt, b = 8, 4
	d := dist.NewG2DBC(7)
	for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
		t.Run(mode.String(), func(t *testing.T) {
			net := &repeatOnce{}
			cl := cluster.NewWithOptions(d.Nodes(), cluster.Options{Net: net, Broadcast: mode})
			defer cl.Close()
			err := runWithDeadline(t, func() error {
				_, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 3), Options{Cluster: cl})
				return err
			})
			want := fmt.Sprintf("node %d: internal error: tile %v from node %d reached node %d twice", net.to, net.tag, net.from, net.to)
			if err == nil || strings.Count(err.Error(), "internal error") != 1 || !strings.Contains(err.Error(), want) {
				t.Fatalf("run returned %v, want one error %q", err, want)
			}
			awaitQuiet(t, cl)
		})
	}
}
