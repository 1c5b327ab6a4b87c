package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/tile"
)

var errBoom = errors.New("boom")

// runWithDeadline guards against the historical failure mode this file pins
// down: peers hanging forever on tiles a failed node will never produce.
func runWithDeadline(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after a kernel error: peers are hung")
		return nil
	}
}

// TestKernelErrorAbortsRun: a kernel failure mid-factorization must abort the
// whole run promptly — the error surfaces from Run through the errors.Join
// chain, every node returns instead of blocking on tiles that will never be
// produced, and no task depending on the failed one is ever executed.
func TestKernelErrorAbortsRun(t *testing.T) {
	const mt, b = 10, 4
	d := dist.NewTwoDBC(2, 3)

	var mu sync.Mutex
	var executed []dag.Task
	kern := func(tk dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		mu.Lock()
		executed = append(executed, tk)
		mu.Unlock()
		if tk.Kind == dag.GETRF && tk.L == 2 {
			return fmt.Errorf("injected: %w", errBoom)
		}
		return LUKernel(tk, out, inputs)
	}

	err := runWithDeadline(t, func() error {
		_, err := Run(dag.NewLU(mt), d, b, GenDiagDominant(mt, b, 7), kern,
			Options{Workers: 2}, nil)
		return err
	})
	if err == nil {
		t.Fatal("kernel error did not surface from Run")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("error chain lost the kernel failure: %v", err)
	}
	if !strings.Contains(err.Error(), "GETRF(2)") {
		t.Fatalf("error does not identify the failed task: %v", err)
	}

	// Nothing downstream of GETRF(2) may have run: the iteration-2 TRSMs and
	// GEMMs depend on it directly, and every task of a later iteration
	// transitively. Unrelated leftovers of iterations 0-1 may legitimately
	// have been in flight when the abort hit.
	mu.Lock()
	defer mu.Unlock()
	for _, tk := range executed {
		if tk.L > 2 {
			t.Fatalf("task %v of iteration %d executed after the iteration-2 panel failed", tk, tk.L)
		}
		if tk.L == 2 && tk.Kind != dag.GETRF {
			t.Fatalf("task %v depends on the failed GETRF(2) but executed", tk)
		}
	}
}

// TestAbortReportsAllNodeErrors: when several nodes fail independently, Run
// must report every failing node's error, not just the lowest rank's. The
// graph is one dependency-free task per tile of a 2×2 matrix, and the 2×2
// grid gives each tile its own node, so every node dispatches (and fails) its
// own root task before any peer's abort can reach it.
func TestAbortReportsAllNodeErrors(t *testing.T) {
	const mt, b = 2, 3
	d := dist.NewTwoDBC(2, 2)
	g := dag.Build(dag.Program{
		Name:  "roots",
		Tiles: mt,
		Tasks: func(_ int, submit func(dag.Task)) {
			for i := int32(0); i < mt; i++ {
				for j := int32(0); j < mt; j++ {
					submit(dag.Task{Kind: dag.GETRF, I: i, J: j})
				}
			}
		},
		OutputTile: func(tk dag.Task) (int, int) { return int(tk.I), int(tk.J) },
		InputTiles: func(dag.Task, func(i, j int)) {},
		Flops:      func(dag.Task, int) float64 { return 0 },
	})

	kern := func(tk dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		return fmt.Errorf("injected: %w", errBoom)
	}
	gen := func(i, j int) *tile.Tile { return tile.New(b, b) }

	err := runWithDeadline(t, func() error {
		_, err := Run(g, d, b, gen, kern, Options{Workers: 1}, nil)
		return err
	})
	if err == nil {
		t.Fatal("kernel errors did not surface from Run")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("error chain lost the kernel failure: %v", err)
	}

	// Every node fails its own root task and must appear in the joined error
	// by rank.
	for rank := 0; rank < d.Nodes(); rank++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("node %d:", rank)) {
			t.Fatalf("node %d failed but is missing from the joined error: %v", rank, err)
		}
	}
}

// TestPeerAbortSentinel: a node that owned work but could not finish it
// because a peer failed reports ErrPeerAborted, and Run folds those into one
// summary line instead of repeating them per rank.
func TestPeerAbortSentinel(t *testing.T) {
	const mt, b = 6, 3
	d := dist.NewTwoDBC(2, 2)

	// Only the very first panel fails, so every other node aborts as a
	// bystander: none of their tasks can ever become ready.
	kern := func(tk dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		if tk.Kind == dag.GETRF && tk.L == 0 {
			return fmt.Errorf("injected: %w", errBoom)
		}
		return LUKernel(tk, out, inputs)
	}
	err := runWithDeadline(t, func() error {
		_, err := Run(dag.NewLU(mt), d, b, GenDiagDominant(mt, b, 3), kern,
			Options{Workers: 1}, nil)
		return err
	})
	if err == nil {
		t.Fatal("kernel error did not surface from Run")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("error chain lost the kernel failure: %v", err)
	}
	if !errors.Is(err, ErrPeerAborted) {
		t.Fatalf("bystander aborts not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "node 0:") {
		t.Fatalf("failing node missing from error: %v", err)
	}
}
