package runtime

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/trace"
)

// chaosOpts builds Options for a fresh plan of cfg, recorded in the returned
// recorder — the run's one fault log — failing the test on an invalid config.
func chaosOpts(t *testing.T, cfg chaos.Config, timeout time.Duration, workers int) (Options, *trace.Recorder) {
	t.Helper()
	plan, err := chaos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	return Options{Workers: workers, Recorder: rec, Chaos: plan, ArrivalTimeout: timeout}, rec
}

// faultCount returns how many of rec's faults are of one of kinds.
func faultCount(rec *trace.Recorder, kinds ...string) int {
	n := 0
	for _, f := range rec.Faults {
		if slices.Contains(kinds, f.Kind) {
			n++
		}
	}
	return n
}

// dumpChaosArtifacts writes the run's trace CSVs, its fault log included, into
// $CHAOS_ARTIFACT_DIR when the test failed, so a CI failure ships everything
// needed to replay it (CI uploads the directory as an artifact).
func dumpChaosArtifacts(t *testing.T, name string, rec *trace.Recorder) {
	t.Cleanup(func() {
		dir := os.Getenv("CHAOS_ARTIFACT_DIR")
		if !t.Failed() || dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		write := func(suffix string, fn func(io.Writer) error) {
			f, err := os.Create(filepath.Join(dir, name+suffix))
			if err != nil {
				t.Logf("artifact %s: %v", suffix, err)
				return
			}
			defer f.Close()
			if err := fn(f); err != nil {
				t.Logf("artifact %s: %v", suffix, err)
			}
		}
		write("-gantt.csv", rec.GanttCSV)
		write("-messages.csv", rec.MessagesCSV)
		write("-faults.csv", rec.FaultsCSV)
	})
}

// identicalLU asserts exact (bitwise) tile equality of two factored matrices.
func identicalLU(t *testing.T, label string, want, got *matrix.Dense, mt int) {
	t.Helper()
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if !want.Tile(i, j).EqualApprox(got.Tile(i, j), 0) {
				t.Fatalf("%s: tile (%d,%d) differs from the fault-free factorization", label, i, j)
			}
		}
	}
}

func identicalCholesky(t *testing.T, label string, want, got *matrix.SymmetricLower, mt int) {
	t.Helper()
	for i := 0; i < mt; i++ {
		for j := 0; j <= i; j++ {
			if !want.Tile(i, j).EqualApprox(got.Tile(i, j), 0) {
				t.Fatalf("%s: tile (%d,%d) differs from the fault-free factorization", label, i, j)
			}
		}
	}
}

// TestChaosSeedDeterminism is the acceptance bar for the whole fault
// subsystem: the same chaos seed must produce the identical structural trace
// — its fault log is the fault schedule, every verdict with its attempt and
// sampled delay — and byte-identical final factors across two consecutive
// runs. Drops are excluded here (their healing is
// wall-clock-driven re-requests, pinned by TestChaosDropHealsViaReRequest
// instead); delays, reorders and duplicates are all active, and the arrival
// timeout is generous enough that no timing-dependent re-request fires.
func TestChaosSeedDeterminism(t *testing.T) {
	const mt, b = 8, 4
	cfg := chaos.Config{
		Seed:       20260805,
		PDelay:     0.30,
		PReorder:   0.15,
		PDuplicate: 0.10,
		MaxDelay:   500 * time.Microsecond,
	}
	d := dist.NewG2DBC(5)

	run := func() (*matrix.Dense, *trace.Recorder) {
		opt, rec := chaosOpts(t, cfg, 5*time.Second, 2)
		fact, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 11), opt)
		if err != nil {
			t.Fatal(err)
		}
		return fact, rec
	}
	factA, recA := run()
	factB, recB := run()
	dumpChaosArtifacts(t, "determinism", recA)

	if fpA, fpB := recA.Fingerprint(), recB.Fingerprint(); fpA != fpB {
		t.Errorf("structural traces differ across identically-seeded runs: %s vs %s", fpA, fpB)
	}
	identicalLU(t, "second run", factA, factB, mt)
	if faultCount(recA, "delay", "reorder", "duplicate") == 0 {
		t.Fatal("no faults injected; the determinism claim was not exercised")
	}
}

// chaosSeeds returns the three pinned regression seeds plus the rotating
// CI seed from $CHAOS_SEED (derived from the git SHA), if set.
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 424242, 9000001}
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", env, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// checkConservation asserts the message-conservation invariant tying the
// logical ledger (Messages: one owner→consumer delivery obligation each,
// plus counted redeliveries) to the wire ledger (Hops: physical link
// transmissions, of which Forwards are tree relays):
//
//   - Every hop serves at most one logical delivery, so TotalHops never
//     exceeds TotalMessages, with equality on a drop-free network (flat and
//     tree alike — the tree redistributes who transmits, not how much).
//   - Hops decompose into owner sends + forwards + redeliveries, so the
//     relayed and redelivered parts together never exceed the total.
//   - Under permanent drops the shortfall TotalMessages − TotalHops is
//     bounded by the arrivals the re-request protocol recovered, the trace's
//     recovered rows: a lost interior forward strands a subtree of s
//     consumers whose s recoveries replace the s−1 relay hops that never
//     happened.
func checkConservation(t *testing.T, label string, rep *Report, rec *trace.Recorder) {
	t.Helper()
	s := rep.Stats
	hops, msgs := s.TotalHops(), s.TotalMessages()
	if hops > msgs {
		t.Errorf("%s: conservation violated: %d wire hops > %d logical messages", label, hops, msgs)
	}
	if s.TotalForwards()+s.Total(cluster.Redeliveries) > hops {
		t.Errorf("%s: forwards %d + redeliveries %d exceed total hops %d",
			label, s.TotalForwards(), s.Total(cluster.Redeliveries), hops)
	}
	if faultCount(rec, "drop", "drop-redeliver") == 0 && hops != msgs {
		t.Errorf("%s: drop-free run must conserve hops: %d hops != %d messages", label, hops, msgs)
	}
	if shortfall, recovered := msgs-hops, faultCount(rec, "recovered"); shortfall > int64(recovered) {
		t.Errorf("%s: hop shortfall %d exceeds the %d recovered arrivals that could explain it",
			label, shortfall, recovered)
	}
}

// broadcastModes enumerates the transports every chaos regression runs
// under: the paper's flat fan-out and the binomial tree (whose relay hops
// must heal through the same Request/Resend protocol).
var broadcastModes = []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree}

// TestChaosRegressionG2DBC23 runs both factorizations at the paper's
// flagship 23-node G-2DBC distribution under the full fault mix (including
// permanent drops, healed by re-requests) and asserts that chaos changes
// nothing observable: final tiles byte-identical to the fault-free run, the
// per-pair message counters still satisfy the Equations (1)/(2) accounting
// once counted redeliveries are subtracted, and the wire-hop ledger obeys
// the conservation invariant — in both broadcast modes.
func TestChaosRegressionG2DBC23(t *testing.T) {
	const mt, b = 12, 4
	d := dist.NewG2DBC(23)

	checkCounters := func(t *testing.T, label string, base, got *Report, pred float64) {
		t.Helper()
		p := base.Stats.P
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				eff := got.Stats.At(cluster.Messages, i, j) - got.Stats.At(cluster.Redeliveries, i, j)
				if eff != base.Stats.At(cluster.Messages, i, j) {
					t.Errorf("%s: pair %d->%d effective messages %d != fault-free %d",
						label, i, j, eff, base.Stats.At(cluster.Messages, i, j))
				}
			}
		}
		// The per-pair equality above is the Eq (1)/(2) check modulo counted
		// redeliveries; the closed-form prediction additionally upper-bounds
		// the effective volume (it is asymptotic in mt, so only the upper
		// side is tight at this matrix size).
		eff := float64(got.Stats.TotalMessages() - got.Stats.Total(cluster.Redeliveries))
		if eff > pred {
			t.Errorf("%s: effective volume %v above prediction %v", label, eff, pred)
		}
		if eff != float64(base.Stats.TotalMessages()) {
			t.Errorf("%s: effective volume %v != fault-free volume %d",
				label, eff, base.Stats.TotalMessages())
		}
	}

	t.Run("LU", func(t *testing.T) {
		base, baseRep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		pred := d.Pattern().CommVolumeLU(mt)
		for _, mode := range broadcastModes {
			for _, seed := range chaosSeeds(t) {
				t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
					opt, rec := chaosOpts(t, chaos.DefaultConfig(seed), 100*time.Millisecond, 2)
					opt.Broadcast = mode
					dumpChaosArtifacts(t, fmt.Sprintf("lu-%s-seed%d", mode, seed), rec)
					fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), opt)
					if err != nil {
						t.Fatal(err)
					}
					identicalLU(t, "chaos run", base, fact, mt)
					checkCounters(t, "LU", baseRep, rep, pred)
					checkConservation(t, "LU", rep, rec)
				})
			}
		}
	})

	t.Run("Cholesky", func(t *testing.T) {
		base, baseRep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 32), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		pred := d.Pattern().CommVolumeCholesky(mt)
		for _, mode := range broadcastModes {
			for _, seed := range chaosSeeds(t) {
				t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
					opt, rec := chaosOpts(t, chaos.DefaultConfig(seed), 100*time.Millisecond, 2)
					opt.Broadcast = mode
					dumpChaosArtifacts(t, fmt.Sprintf("cholesky-%s-seed%d", mode, seed), rec)
					fact, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 32), opt)
					if err != nil {
						t.Fatal(err)
					}
					identicalCholesky(t, "chaos run", base, fact, mt)
					checkCounters(t, "Cholesky", baseRep, rep, pred)
					checkConservation(t, "Cholesky", rep, rec)
				})
			}
		}
	})
}

// TestChaosDropHealsViaReRequest proves the acceptance criterion for the
// healing path: under permanent drops with NO transport redelivery, the only
// way the run can complete is the arrival-timeout re-request protocol — and
// it must complete, correctly, with the report counting what healed. The
// tree-mode variant is the sharper claim: a dropped interior forward
// strands a whole subtree, and every stranded consumer must still heal by
// re-requesting the version from its original owner (never from the relay).
func TestChaosDropHealsViaReRequest(t *testing.T) {
	const mt, b = 6, 4
	d := dist.NewTwoDBC(2, 2)
	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 21), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range broadcastModes {
		t.Run(mode.String(), func(t *testing.T) {
			opt, rec := chaosOpts(t, chaos.Config{Seed: 77, PDrop: 0.25},
				30*time.Millisecond, 1)
			opt.Broadcast = mode
			dumpChaosArtifacts(t, "drop-heal-"+mode.String(), rec)
			err = runWithDeadline(t, func() error {
				fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 21), opt)
				if err != nil {
					return err
				}
				identicalLU(t, "healed run", base, fact, mt)

				if faultCount(rec, "drop") == 0 {
					t.Error("seed 77 dropped nothing; the healing path was not exercised")
				}
				if faultCount(rec, "recovered") == 0 {
					t.Error("healing not accounted: no arrival recovered")
				}
				if rep.Stats.Total(cluster.Requests) == 0 || rep.Stats.Total(cluster.Redeliveries) == 0 {
					t.Errorf("cluster counters missed the healing: requests=%d redeliveries=%d",
						rep.Stats.Total(cluster.Requests), rep.Stats.Total(cluster.Redeliveries))
				}
				checkConservation(t, "drop-heal", rep, rec)
				peaked := false
				for _, peak := range rep.Stats.MailboxPeak {
					peaked = peaked || peak > 0
				}
				if len(rep.Stats.MailboxPeak) != d.Nodes() || !peaked {
					t.Errorf("mailbox high-water marks missing: %v", rep.Stats.MailboxPeak)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("drop-heal run failed: %v", err)
			}
		})
	}
}

// TestChaosCrashSoak crashes node 1 before every one of its owned-task
// indices in turn — under drops and transport redeliveries at the same time
// — and accepts exactly two outcomes per crash point: a joined error that
// includes the injected crash, or (when the crash index exceeds the node's
// owned work) a verified fault-free-identical factorization. A hang is the
// one forbidden outcome, enforced by the watchdog.
func TestChaosCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	const mt, b = 4, 4
	const victim = 1
	d := dist.NewTwoDBC(2, 2)
	g := dag.NewLU(mt)
	ownedByVictim := 0
	dag.ForEachTask(g, func(tk dag.Task) {
		i, j := g.OutputTile(tk)
		if d.Owner(i, j) == victim {
			ownedByVictim++
		}
	})
	if ownedByVictim == 0 {
		t.Fatal("victim owns no tasks; soak proves nothing")
	}
	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 41), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n <= ownedByVictim; n++ {
		t.Run(fmt.Sprintf("crashAt=%d", n), func(t *testing.T) {
			cfg := chaos.Config{
				Seed:           int64(1000 + n),
				PDrop:          0.10,
				PDropRedeliver: 0.15,
				RedeliverAfter: 5 * time.Millisecond,
				CrashAtTask:    map[int]int{victim: n},
			}
			opt, rec := chaosOpts(t, cfg, 30*time.Millisecond, 1)
			dumpChaosArtifacts(t, fmt.Sprintf("crash-at-%d", n), rec)
			err := runWithDeadline(t, func() error {
				fact, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 41), opt)
				if err != nil {
					return err
				}
				identicalLU(t, "surviving run", base, fact, mt)
				return nil
			})
			switch {
			case n < ownedByVictim && err == nil:
				t.Fatalf("crash at task %d of %d did not surface", n, ownedByVictim)
			case n < ownedByVictim && !errors.Is(err, chaos.ErrInjectedCrash):
				t.Fatalf("crash error lost the injected root cause: %v", err)
			case n == ownedByVictim && err != nil:
				// Crash index past the victim's last task: nothing fires and
				// the run must survive the remaining drop faults outright.
				t.Fatalf("run with unreachable crash index failed: %v", err)
			}
		})
	}
}

// TestChaosCrashRecordedOnce: an injected crash fails the run and is one
// fault row on its trace, from the victim, naming the task index it fired
// before.
func TestChaosCrashRecordedOnce(t *testing.T) {
	const mt, b, victim, at = 8, 4, 2, 3
	d := dist.NewG2DBC(6)
	// The subtest keeps the name it had when an elastic cell ran beside it.
	t.Run("elastic=false", func(t *testing.T) {
		opt, rec := chaosOpts(t, chaos.Config{Seed: 1, CrashAtTask: map[int]int{victim: at}}, 30*time.Millisecond, 1)
		dumpChaosArtifacts(t, "crash-once", rec)
		err := runWithDeadline(t, func() error {
			_, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 3), opt)
			return err
		})
		if !errors.Is(err, chaos.ErrInjectedCrash) {
			t.Fatalf("run returned %v, want the injected crash", err)
		}
		var crashes []trace.FaultEvent
		for _, f := range rec.Faults {
			if f.Kind == "crash" {
				crashes = append(crashes, f)
			}
		}
		want := fmt.Sprintf("task %d", at)
		if len(crashes) != 1 || crashes[0].Src != victim || crashes[0].Tag != want {
			t.Fatalf("crash rows %+v, want one from node %d naming %q", crashes, victim, want)
		}
	})
}

// TestChaosWorkStealingWorkers4 runs the chaos suite with 4 workers per
// node, so the node's shared queue and its prefetch are exercised under
// faults (drops, delays, reorders, duplicates) rather than shipping tested
// only at the 1–2 workers the other chaos suites pin. (The name predates the
// single queue: there is no stealing.) Factors must stay bit-identical to the
// fault-free run and the effective message volume must match it exactly.
func TestChaosWorkStealingWorkers4(t *testing.T) {
	const mt, b = 10, 4
	const workers = 4
	d := dist.NewG2DBC(23)

	t.Run("LU", func(t *testing.T) {
		base, baseRep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 51), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				opt, rec := chaosOpts(t, chaos.DefaultConfig(seed), 100*time.Millisecond, workers)
				dumpChaosArtifacts(t, fmt.Sprintf("steal-lu-seed%d", seed), rec)
				fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 51), opt)
				if err != nil {
					t.Fatal(err)
				}
				identicalLU(t, "chaos workers=4", base, fact, mt)
				checkEffective(t, "LU", baseRep, rep)
			})
		}
	})

	t.Run("Cholesky", func(t *testing.T) {
		base, baseRep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 52), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				opt, rec := chaosOpts(t, chaos.DefaultConfig(seed), 100*time.Millisecond, workers)
				dumpChaosArtifacts(t, fmt.Sprintf("steal-cholesky-seed%d", seed), rec)
				fact, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 52), opt)
				if err != nil {
					t.Fatal(err)
				}
				identicalCholesky(t, "chaos workers=4", base, fact, mt)
				checkEffective(t, "Cholesky", baseRep, rep)
			})
		}
	})
}

// checkEffective asserts that the chaos run's effective per-pair message
// counts (deliveries minus counted redeliveries) match the fault-free run's.
func checkEffective(t *testing.T, label string, base, got *Report) {
	t.Helper()
	if base == nil || got == nil {
		return
	}
	p := base.Stats.P
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			eff := got.Stats.At(cluster.Messages, i, j) - got.Stats.At(cluster.Redeliveries, i, j)
			if eff != base.Stats.At(cluster.Messages, i, j) {
				t.Errorf("%s: pair %d->%d effective messages %d != fault-free %d",
					label, i, j, eff, base.Stats.At(cluster.Messages, i, j))
			}
		}
	}
}
