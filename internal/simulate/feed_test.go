package simulate

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"anybc/internal/dag"
	"anybc/internal/dist"
)

// brokenProgram states three iterations, but its iteration bad submits a
// task that depends on nothing earlier: the inference stops there with an
// error, while the event loop is still running the iterations before.
func brokenProgram(bad int) dag.Graph {
	return dag.Build(dag.Program{
		Name: "broken", Tiles: 4, Iterations: 3,
		Tasks: func(l int, submit func(dag.Task)) {
			for i := 0; i < 4; i++ {
				submit(dag.Task{Kind: kRegress, L: int32(l), I: int32(i)})
			}
		},
		OutputTile: func(t dag.Task) (int, int) {
			if int(t.L) == bad {
				return int(t.I), 3 // a tile no earlier iteration wrote
			}
			return int(t.I), 0
		},
		InputTiles: func(dag.Task, func(i, j int)) {},
		Flops:      func(dag.Task, int) float64 { return 1e6 },
	})
}

// TestRunLeavesNoGoroutine: Run stops its producer on every return path — a
// finished run, an inference error early and late, the event loop running
// dry with tasks left, and a machine or node speeds it rejects before the
// producer starts.
func TestRunLeavesNoGoroutine(t *testing.T) {
	m := testMachine()
	d := dist.NewTwoDBC(2, 2)
	paths := []struct {
		name string
		run  func() error
		want string // "" for success
	}{
		{"success", func() error {
			_, err := Run(dag.NewLU(8), 16, d, m, Options{})
			return err
		}, ""},
		{"inference error in the first iterations", func() error {
			_, err := Run(brokenProgram(1), 16, d, m, Options{})
			return err
		}, "states iterations"},
		{"inference error in the last iteration", func() error {
			_, err := Run(brokenProgram(2), 16, d, m, Options{})
			return err
		}, "states iterations"},
		{"dependency deadlock", func() error {
			s, err := newSim(dag.NewLU(8), 16, d, m, Options{})
			if err != nil {
				return err
			}
			s.freeWorkers[1] = 0 // node 1 never runs a task
			return s.run()
		}, "dependency deadlock"},
		{"invalid machine", func() error {
			_, err := Run(dag.NewLU(8), 16, d, Machine{}, Options{})
			return err
		}, "Workers"},
		{"invalid node speeds", func() error {
			_, err := Run(dag.NewLU(8), 16, d, m, Options{NodeSpeed: []float64{1}})
			return err
		}, "node speeds"},
	}
	for _, p := range paths {
		before := runtime.NumGoroutine()
		err := p.run()
		switch {
		case p.want == "" && err != nil:
			t.Errorf("%s: %v", p.name, err)
		case p.want != "" && (err == nil || !strings.Contains(err.Error(), p.want)):
			t.Errorf("%s: error %v, want one naming %q", p.name, err, p.want)
		}
		// A goroutine that has returned leaves the count a moment later.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines before Run, %d after", p.name, before, n)
		}
	}
}
