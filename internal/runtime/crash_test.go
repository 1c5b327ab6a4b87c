package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/plan"
	"anybc/internal/trace"
)

// TestCrashFailsEveryCell is the crash axis of the product matrix: {flat,
// tree} × {Workers 1, 4} × {a private cluster whose network seam is a
// delivery-fault plan, a shared cluster under a crash-only plan}. Nothing
// recovers from a crash, so in every cell the victim's crash fails the run
// with chaos.ErrInjectedCrash within the test deadline, the trace holds
// exactly one crash row, every payload in flight is released and no engine
// goroutine outlives the run. On the shared cluster a co-tenant runs beside
// the crashed job and its factors stay the solo run's, bit for bit.
//
// The private cluster is built here as RunPlan builds one for a run with a
// delivery-fault plan — the plan as its seam, this run its only tenant — so
// that its in-flight count can be read; the crash itself comes from a
// crash-only plan in Options.Chaos, the one a job on any cluster may carry.
func TestCrashFailsEveryCell(t *testing.T) {
	const mt, b = 10, 4
	d := dist.NewG2DBC(7)
	const victim = 3
	pl, err := plan.Compile(dag.NewLU(mt), d)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pl.Tasks(victim)
	at := int(hi-lo) / 2
	gen := GenDiagDominant(mt, b, 17)
	solo, _, err := FactorLU(mt, b, d, gen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustChaos := func(cfg chaos.Config) *chaos.Plan {
		p, err := chaos.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
		for _, workers := range []int{1, 4} {
			for _, shared := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/private,lossy", mode, workers)
				if shared {
					name = fmt.Sprintf("%s/workers=%d/shared,crash-only", mode, workers)
				}
				t.Run(name, func(t *testing.T) {
					rec := &trace.Recorder{}
					opt := Options{
						Workers:        workers,
						Recorder:       rec,
						Chaos:          mustChaos(chaos.Config{Seed: 1, CrashAtTask: map[int]int{victim: at}}),
						ArrivalTimeout: 20 * time.Millisecond,
					}
					copt := cluster.Options{Broadcast: mode}
					var lossy *chaos.Plan
					if !shared {
						cfg := chaos.DefaultConfig(1)
						cfg.MaxDelay, cfg.ReorderFlush, cfg.RedeliverAfter = time.Millisecond, 5*time.Millisecond, 5*time.Millisecond
						lossy = mustChaos(cfg)
						lossy.Bind(rec, time.Now())
						copt.Net = lossy
					}
					cl := cluster.NewWithOptions(d.Nodes(), copt)
					defer cl.Close()
					opt.Cluster = cl
					dumpChaosArtifacts(t, "crash-"+strings.ReplaceAll(name, "/", "-"), rec)

					var coTenant *matrix.Dense
					coDone := make(chan error, 1)
					if shared {
						go func() {
							var err error
							coTenant, _, err = FactorLU(mt, b, d, gen, Options{Workers: workers, Cluster: cl})
							coDone <- err
						}()
					}
					err := runWithDeadline(t, func() error {
						_, _, err := FactorLU(mt, b, d, gen, opt)
						return err
					})
					if !errors.Is(err, chaos.ErrInjectedCrash) {
						t.Fatalf("run returned %v, want the injected crash", err)
					}
					if shared {
						if err := <-coDone; err != nil {
							t.Fatalf("co-tenant of a crashed job failed: %v", err)
						}
						identicalLU(t, "co-tenant of a crashed job", solo, coTenant, mt)
					} else {
						lossy.Flush()
						if faultCount(rec, "drop", "drop-redeliver", "duplicate", "delay", "reorder") == 0 {
							t.Error("the lossy seam disturbed no delivery before the crash")
						}
					}
					if n := faultCount(rec, "crash"); n != 1 {
						t.Errorf("%d crash rows, want 1", n)
					}

					deadline := time.Now().Add(10 * time.Second)
					for {
						runs, others := engineGoroutines()
						inFlight := cl.PoolOutstanding()
						if runs == 0 && others == 0 && inFlight == 0 {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("after the run: %d payloads in flight, %d goroutines in engine.run and %d more in the engine",
								inFlight, runs, others)
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
		}
	}
}
