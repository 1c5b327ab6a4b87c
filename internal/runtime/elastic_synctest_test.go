//go:build goexperiment.synctest

package runtime

import (
	"errors"
	"testing"
	"testing/synctest"
)

// virtualRuns is how often each cell runs, in a bubble of its own per run.
const virtualRuns = 20

// TestElasticDeathsInVirtualTime runs every cell of
// TestElasticTwoDeathsOneAdopter and TestElasticAdopterDies virtualRuns times
// inside a testing/synctest bubble, where the arrival tickers, the chaos
// plan's timers and the re-request timeout run on the bubble's clock: a run
// costs its compute, not its waits. Each run is held to the crash-free
// factors bit for bit and to checkAdoption. Recorder fingerprints are not
// compared: the bubble fixes the clock, not the goroutine interleaving.
func TestElasticDeathsInVirtualTime(t *testing.T) {
	for _, set := range []struct {
		name  string
		cells []deathsCell
	}{
		{"TwoDeathsOneAdopter", twoDeathsCells()},
		{"AdopterDies", adopterDiesCells()},
	} {
		for _, c := range set.cells {
			t.Run(set.name+"/"+c.name, func(t *testing.T) {
				for run := range virtualRuns {
					// Made outside the bubble: Go 1.24's race detector sees no
					// edge in synctest.Run's own wait. The deferred send also
					// reports a run a failed check stopped with t.Fatal.
					errc := make(chan error, 1)
					synctest.Run(func() {
						err := errors.New("stopped by a failed check")
						defer func() { errc <- err }()
						err = c.check(t)
					})
					if err := <-errc; err != nil {
						t.Fatalf("run %d failed instead of recovering: %v", run, err)
					}
				}
			})
		}
	}
}
