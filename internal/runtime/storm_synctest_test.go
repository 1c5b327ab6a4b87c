//go:build goexperiment.synctest

package runtime

import (
	"testing"
	"testing/synctest"
	"time"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dist"
	"anybc/internal/matrix"
)

// stormRuns is how often the storm's shape runs, in a bubble of its own per
// run.
const stormRuns = 5

// stormMakespan bounds a storm run's virtual wall-clock. The kernels take no
// virtual time, so the makespan is the recovery's: arrival timeouts, backoffs
// and the plan's delays on the critical path. Runs read 2.5 or 3.0 s.
const stormMakespan = 4 * time.Second

// TestRecoveryAsksOnceInVirtualTime runs `simfact -real -chaos-seed 7 -p 23
// -n 512 -tb 16`'s shape — LU on G-2DBC(23), mt 32, b 16, at two workers,
// under chaos.DefaultConfig(7) and the default arrival timeout — stormRuns
// times in a testing/synctest bubble, where the arrival tickers and the
// plan's timers run on the bubble's clock. Every run must match the
// fault-free factors bit for bit and keep the per-pair effective message
// counts, send at most two re-requests per injected loss (a drop or a
// drop-with-redelivery: one to heal it, one for a request or answer the
// plan drops in turn), and finish within stormMakespan of virtual time.
// Bounds, not values: the bubble fixes the clock, not the interleaving.
func TestRecoveryAsksOnceInVirtualTime(t *testing.T) {
	const mt, b, workers = 32, 16, 2
	d := dist.NewG2DBC(23)
	gen := GenDiagDominant(mt, b, 1)
	base, baseRep, err := FactorLU(mt, b, d, gen, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		fact     *matrix.Dense
		rep      *Report
		losses   int
		makespan time.Duration
		err      error
	}
	for run := range stormRuns {
		done := make(chan outcome, 1) // made outside the bubble, as in virtualMakespan
		synctest.Run(func() {
			opt, rec := chaosOpts(t, chaos.DefaultConfig(7), 0, workers)
			start := time.Now()
			fact, rep, err := FactorLU(mt, b, d, gen, opt)
			done <- outcome{fact, rep, faultCount(rec, "drop", "drop-redeliver"), time.Since(start), err}
		})
		o := <-done
		if o.err != nil {
			t.Fatalf("run %d: %v", run, o.err)
		}
		identicalLU(t, "storm run", base, o.fact, mt)
		checkEffective(t, "storm", baseRep, o.rep)
		requests := o.rep.Stats.Total(cluster.Requests)
		t.Logf("run %d: %d re-requests for %d injected losses, %d redeliveries, virtual makespan %v",
			run, requests, o.losses, o.rep.Stats.Total(cluster.Redeliveries), o.makespan)
		if o.losses == 0 {
			t.Fatalf("run %d: seed 7 lost nothing; the storm's shape was not exercised", run)
		}
		if requests > 2*int64(o.losses) {
			t.Errorf("run %d: %d re-requests for %d injected losses, more than two each", run, requests, o.losses)
		}
		if o.makespan > stormMakespan {
			t.Errorf("run %d: virtual makespan %v above %v", run, o.makespan, stormMakespan)
		}
	}
}
