package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// TestCancelSharedCluster is the regression test for the cancellation seam:
// cancelling one job's Context mid-run must return ErrCanceled, release every
// payload it had in flight on the shared cluster (PoolOutstanding drains), and
// leave the cluster perfectly usable — a subsequent job on a fresh namespace
// factors bit-identically to a solo run.
func TestCancelSharedCluster(t *testing.T) {
	const mt, b, P = 8, 4, 4
	d := dist.NewG2DBC(P)
	cl := cluster.NewWithOptions(P, cluster.Options{})
	defer cl.Close()

	// Job 1: a kernel that announces its 20th task, then runs slowly enough
	// that the cancellation always lands mid-factorization. By then job 1
	// has sent panels and holds received copies, so the cancel must release
	// messages that are in flight and retained, not an empty ledger.
	started := make(chan struct{})
	var calls atomic.Int32
	slowLU := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
		if calls.Add(1) == 20 {
			close(started)
		}
		time.Sleep(2 * time.Millisecond)
		return LUKernel(task, out, in)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		<-started
		cancel(errors.New("tenant hit its deadline"))
	}()
	_, err := Run(dag.NewLU(mt), d, b, GenDiagDominant(mt, b, 31), slowLU,
		Options{Cluster: cl, Context: ctx}, func(i, j int, tl *tile.Tile) {})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled run returned %v, not ErrCanceled", err)
	}

	// No leak: every in-flight payload the aborted engines abandoned must
	// be released. A late message may still be in its sender's hands when
	// Run returns, and is released as it finds the plane gone, so poll
	// briefly.
	deadline := time.Now().Add(10 * time.Second)
	for cl.PoolOutstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job leaked %d payloads", cl.PoolOutstanding())
		}
		time.Sleep(time.Millisecond)
	}

	// The shared substrate is unpoisoned: the next job, on a namespace of its
	// own, produces factors bit-identical to a solo dedicated-cluster run.
	got := matrix.NewDense(mt, mt, b)
	_, err = Run(dag.NewLU(mt), d, b, GenDiagDominant(mt, b, 32), LUKernel,
		Options{Cluster: cl}, func(i, j int, tl *tile.Tile) {
			got.SetTile(i, j, tl.Clone())
		})
	if err != nil {
		t.Fatalf("job after a cancelled tenant failed: %v", err)
	}
	want, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
				t.Fatalf("tile (%d,%d) differs from the solo run after a cancelled co-tenant", i, j)
			}
		}
	}
	if n := cl.PoolOutstanding(); n != 0 {
		t.Fatalf("pool imbalance after both jobs: %d tiles outstanding", n)
	}
}

// TestCancelBeforeStart: a Context already cancelled when Run is called must
// abort promptly with ErrCanceled rather than factoring anything.
func TestCancelBeforeStart(t *testing.T) {
	const mt, b, P = 6, 4, 3
	cl := cluster.NewWithOptions(P, cluster.Options{})
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(dag.NewLU(mt), dist.NewG2DBC(P), b, GenDiagDominant(mt, b, 5), LUKernel,
		Options{Cluster: cl, Context: ctx}, func(i, j int, tl *tile.Tile) {})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-cancelled run returned %v, not ErrCanceled", err)
	}
}
