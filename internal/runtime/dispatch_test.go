package runtime

import (
	"testing"
	"time"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// TestStallAccountingIdleWeighted is the regression test for the
// multi-worker stall bug: the old event-loop accounting charged full
// wall-clock stall whenever inflight < workers, so a serial task chain on a
// 4-worker node — 3 of 4 workers idle, but never all 4 — accrued stall at
// ~1.0× elapsed, indistinguishable from a fully idle node. The idle-weighted
// accounting must report ~0.75× elapsed (3 idle workers / 4), and the
// recorder's weighted stall events must agree with the report.
func TestStallAccountingIdleWeighted(t *testing.T) {
	const chain = 20
	const pause = 5 * time.Millisecond
	tasks := make([]testTask, chain)
	tasks[0] = testTask{out: [2]int{0, 0}}
	for i := 1; i < chain; i++ {
		tasks[i] = testTask{out: [2]int{0, 0}}
	}
	g := newTestGraph(1, tasks)
	d := testDist{p: 1, owner: func(i, j int) int { return 0 }}
	kern := func(task dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		time.Sleep(pause)
		return nil
	}
	rec := &trace.Recorder{}
	rep, err := Run(g, d, 1, func(i, j int) *tile.Tile { return tile.New(1, 1) },
		kern, Options{Workers: 4, Recorder: rec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stall := rep.Sched[0].StallSeconds
	elapsed := rep.Elapsed.Seconds()
	if stall <= 0 {
		t.Fatalf("serial chain on 4 workers reported zero stall")
	}
	// The buggy accounting gives stall/elapsed ≈ 1.0; idle-weighting gives
	// ≈ 0.75 (+ a sliver of all-idle handoff gaps). The band is generous so
	// scheduler jitter under -race cannot flake it, while still rejecting
	// the full-wall-clock behaviour.
	if ratio := stall / elapsed; ratio > 0.9 || ratio < 0.4 {
		t.Fatalf("stall/elapsed = %.3f (stall %.1fms over %.1fms), want ~0.75 — full-wall-clock accounting?",
			ratio, stall*1e3, elapsed*1e3)
	}
	// The recorder's weighted events are the same account.
	recSum := 0.0
	for _, s := range rec.Stalls {
		recSum += (s.End - s.Start) * s.Weight
	}
	if diff := recSum - stall; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("recorder weighted stalls %.9f != report StallSeconds %.9f", recSum, stall)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-worker observability: 4 busy counters that sum to roughly the
	// chain's serial kernel time.
	busy := rep.Sched[0].WorkerBusySeconds
	if len(busy) != 4 {
		t.Fatalf("WorkerBusySeconds has %d entries, want 4", len(busy))
	}
	busySum := 0.0
	for _, b := range busy {
		busySum += b
	}
	if minBusy := (chain * pause).Seconds(); busySum < minBusy {
		t.Fatalf("workers report %.1fms busy, below the %.1fms the kernels slept",
			busySum*1e3, minBusy*1e3)
	}
}

// TestBitIdenticalFactorsAcrossWorkers: on the paper's 23-node G-2DBC case,
// the final LU and Cholesky factors must be bit-identical for any worker
// count — kernels execute whole tasks and the graph serializes writers, so
// the FP schedule per tile never depends on how tasks interleave.
func TestBitIdenticalFactorsAcrossWorkers(t *testing.T) {
	const mt, b = 12, 4
	d := dist.NewG2DBC(23)

	t.Run("LU", func(t *testing.T) {
		want, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 41), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 41), Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := 0; i < mt; i++ {
				for j := 0; j < mt; j++ {
					if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
						t.Fatalf("workers=%d: LU tile (%d,%d) not bit-identical to workers=1", workers, i, j)
					}
				}
			}
		}
	})
	t.Run("Cholesky", func(t *testing.T) {
		want, _, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 42), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, _, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 42), Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := 0; i < mt; i++ {
				for j := 0; j <= i; j++ {
					if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
						t.Fatalf("workers=%d: Cholesky tile (%d,%d) not bit-identical to workers=1", workers, i, j)
					}
				}
			}
		}
	})
}

// TestWorkersNormalizedOnce: Run is the single normalization point for
// Options.Workers — zero and negative values mean one worker, visible in the
// per-worker observability of the report.
func TestWorkersNormalizedOnce(t *testing.T) {
	g := newTestGraph(1, []testTask{{out: [2]int{0, 0}}})
	d := testDist{p: 1, owner: func(i, j int) int { return 0 }}
	kern := func(task dag.Task, out *tile.Tile, inputs []*tile.Tile) error { return nil }
	for _, workers := range []int{0, -3} {
		rep, err := Run(g, d, 1, func(i, j int) *tile.Tile { return tile.New(1, 1) },
			kern, Options{Workers: workers}, nil)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if got := len(rep.Sched[0].WorkerBusySeconds); got != 1 {
			t.Fatalf("Workers=%d ran with %d worker slots, want 1", workers, got)
		}
	}
}
