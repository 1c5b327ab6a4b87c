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
	"anybc/internal/trace"
)

// ownedTaskCount returns how many tasks of g the distribution assigns to
// rank, i.e. the victim's owned-task count that bounds chaos crash indices.
func ownedTaskCount(g dag.Graph, d dist.Distribution, rank int) int {
	n := 0
	dag.ForEachTask(g, func(tk dag.Task) {
		i, j := g.OutputTile(tk)
		if d.Owner(i, j) == rank {
			n++
		}
	})
	return n
}

// checkAdoption asserts the migration is visible in the run's trace: every
// victim has its crash row, the expected adopter ran exactly the victims'
// shares of the plan for owners other than itself, and no other survivor ran
// a task it does not own (the deterministic rule must not split the work; a
// victim may have adopted before it died in turn, and then the adopter is the
// survivor at the end of that chain). The kernel counts must balance too: a
// victim reports the kernels it ran before dying — its recorded tasks, not its
// ownership — and across the cluster every task of g ran once natively,
// except those a victim never reached, plus once per adoption.
func checkAdoption(t *testing.T, rep *Report, rec *trace.Recorder, g dag.Graph, d dist.Distribution, adopter int, victims ...int) {
	t.Helper()
	crashed := map[int]bool{}
	for _, f := range rec.Faults {
		if f.Kind == "crash" {
			crashed[f.Src] = true
		}
	}
	ran, foreign := make([]int, d.Nodes()), make([]int, d.Nodes())
	for _, ev := range rec.Tasks {
		ran[ev.Node]++
		if i, j := g.OutputTile(ev.Task); d.Owner(i, j) != ev.Node {
			foreign[ev.Node]++
		}
	}
	shares, unreached := 0, 0
	for _, victim := range victims {
		if !crashed[victim] {
			t.Errorf("victim %d has no crash row", victim)
		}
		owned := ownedTaskCount(g, d, victim)
		if n := rep.TasksPerNode[victim]; n != ran[victim] || n >= owned {
			t.Errorf("victim %d reports %d executed kernels; it ran %d of the %d it owned before dying",
				victim, n, ran[victim], owned)
		}
		shares += owned
		unreached += owned - rep.TasksPerNode[victim]
	}
	for rank, n := range foreign {
		switch {
		case rank == adopter && n != shares:
			t.Errorf("adopter %d re-ran %d tasks, want the victims' whole shares: %d", adopter, n, shares)
		case rank != adopter && !crashed[rank] && n != 0:
			t.Errorf("node %d ran %d tasks it does not own; only %d should adopt", rank, n, adopter)
		}
	}
	total := 0
	for _, n := range rep.TasksPerNode {
		total += n
	}
	if want := g.NumTasks() - unreached + shares; total != want {
		t.Errorf("%d kernels executed cluster-wide, want %d = %d tasks - %d the victims never ran + %d replayed",
			total, want, g.NumTasks(), unreached, shares)
	}
}

// TestElasticCrashRecovery is the acceptance test of the elastic tentpole:
// on the paper's flagship 23-node G-2DBC distribution, a node killed
// mid-factorization must not abort the run — the deterministic adopter (the
// lowest alive rank) re-runs its tasks, republishes under the original
// versioned tags, and the run completes with factors bit-identical to a
// crash-free run, on both broadcast transports.
// A light permanent-drop mix rides along so the Request/Resend healing and
// the adoption machinery are exercised together, per pinned seed.
func TestElasticCrashRecovery(t *testing.T) {
	const mt, b = 12, 4
	const victim = 5
	d := dist.NewG2DBC(23)
	g := dag.NewLU(mt)
	owned := ownedTaskCount(g, d, victim)
	if owned < 4 {
		t.Fatalf("victim %d owns only %d tasks; crash mid-run proves nothing", victim, owned)
	}
	crashAt := owned / 2

	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range broadcastModes {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				cfg := chaos.Config{
					Seed:        seed,
					PDrop:       0.05,
					CrashAtTask: map[int]int{victim: crashAt},
				}
				opt, rec := chaosOpts(t, cfg, 30*time.Millisecond, 1)
				opt.Broadcast = mode
				opt.Elastic = true
				dumpChaosArtifacts(t, fmt.Sprintf("elastic-%s-seed%d", mode, seed), rec)
				err := runWithDeadline(t, func() error {
					fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), opt)
					if err != nil {
						return err
					}
					identicalLU(t, "elastic run", base, fact, mt)
					checkAdoption(t, rep, rec, g, d, 0, victim)
					return nil
				})
				if err != nil {
					t.Fatalf("elastic run failed instead of recovering: %v", err)
				}
			})
		}
	}
}

// TestElasticCrashRecoveryWorkers4 repeats the crash-recovery acceptance
// with 4 workers per node, so adoption interleaves with intra-node work
// stealing and the worker-held job copies (jobs carry their task by value —
// adoption appends to the owned slice mid-run) are exercised under -race.
func TestElasticCrashRecoveryWorkers4(t *testing.T) {
	const mt, b = 12, 4
	const victim = 5
	d := dist.NewG2DBC(23)
	g := dag.NewLU(mt)
	crashAt := ownedTaskCount(g, d, victim) / 2

	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range broadcastModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := chaos.Config{Seed: 424242, CrashAtTask: map[int]int{victim: crashAt}}
			opt, rec := chaosOpts(t, cfg, 30*time.Millisecond, 4)
			opt.Broadcast = mode
			opt.Elastic = true
			dumpChaosArtifacts(t, "elastic-workers4-"+mode.String(), rec)
			err := runWithDeadline(t, func() error {
				fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), opt)
				if err != nil {
					return err
				}
				identicalLU(t, "elastic workers=4", base, fact, mt)
				checkAdoption(t, rep, rec, g, d, 0, victim)
				return nil
			})
			if err != nil {
				t.Fatalf("elastic workers=4 run failed: %v", err)
			}
		})
	}
}

// TestElasticCrashAfterPublish pins the crash-after-publish regression: with
// several workers the victim prefetches jobs into its deques, so by the time
// the crash fires it has already published tiles (SendAll completed) whose
// local successors sit queued-but-unstarted and are purged with the deque —
// tasks that are neither published nor running. The adopter must replay
// those stranded successors from the victim's published predecessors rather
// than deadlock waiting for versions nobody will ever produce. The late
// crash index maximizes published-before-crash state.
func TestElasticCrashAfterPublish(t *testing.T) {
	const mt, b = 12, 4
	const victim = 5
	d := dist.NewG2DBC(23)
	g := dag.NewLU(mt)
	owned := ownedTaskCount(g, d, victim)
	crashAt := 2 * owned / 3

	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := chaos.Config{Seed: seed, CrashAtTask: map[int]int{victim: crashAt}}
			opt, rec := chaosOpts(t, cfg, 30*time.Millisecond, 4)
			opt.Elastic = true
			dumpChaosArtifacts(t, fmt.Sprintf("crash-after-publish-seed%d", seed), rec)
			err := runWithDeadline(t, func() error {
				fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), opt)
				if err != nil {
					return err
				}
				identicalLU(t, "crash after publish", base, fact, mt)
				checkAdoption(t, rep, rec, g, d, 0, victim)
				return nil
			})
			if err != nil {
				t.Fatalf("crash-after-publish run failed: %v", err)
			}
		})
	}
}

// TestElasticCholeskyCrash extends the crash-recovery claim to the second
// factorization: the adoption machinery is graph-agnostic, so a Cholesky
// victim must migrate exactly like an LU one.
func TestElasticCholeskyCrash(t *testing.T) {
	const mt, b = 10, 4
	const victim = 3
	d := dist.NewG2DBC(23)
	g := dag.NewCholesky(mt)
	crashAt := ownedTaskCount(g, d, victim) / 2

	base, _, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 32), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range broadcastModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := chaos.Config{Seed: 1, CrashAtTask: map[int]int{victim: crashAt}}
			opt, rec := chaosOpts(t, cfg, 30*time.Millisecond, 2)
			opt.Broadcast = mode
			opt.Elastic = true
			dumpChaosArtifacts(t, "elastic-cholesky-"+mode.String(), rec)
			err := runWithDeadline(t, func() error {
				fact, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 32), opt)
				if err != nil {
					return err
				}
				identicalCholesky(t, "elastic Cholesky", base, fact, mt)
				checkAdoption(t, rep, rec, g, d, 0, victim)
				return nil
			})
			if err != nil {
				t.Fatalf("elastic Cholesky run failed: %v", err)
			}
		})
	}
}

// TestElasticReplicatedLU pins elastic recovery under replication: a node of
// the c = 2 replicated LU dies mid-run, rank 0 re-runs its whole share —
// layer accumulators and reduction partials included — and the factors are
// bit-identical to the crash-free c = 2 run (c > 1 is deterministic across
// repeats), on both transports. The run shares a cluster so that its pool can
// be seen to drain.
func TestElasticReplicatedLU(t *testing.T) {
	const mt, b, c, victim = 8, 4, 2, 3
	base := dist.NewG2DBC(5)
	g, d := dag.NewReplicatedLU(mt, c), dist.NewReplicated(base, c, mt)
	crashAt := ownedTaskCount(g, d, victim) / 2
	want, _, err := FactorLUReplicated(mt, b, c, base, GenDiagDominant(mt, b, 13), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range broadcastModes {
		t.Run(mode.String(), func(t *testing.T) {
			cl := cluster.NewWithOptions(d.Nodes(), cluster.Options{Broadcast: mode})
			defer cl.Close()
			opt, rec := chaosOpts(t, chaos.Config{Seed: 1, CrashAtTask: map[int]int{victim: crashAt}}, 30*time.Millisecond, 1)
			opt.Elastic, opt.Cluster = true, cl
			dumpChaosArtifacts(t, "elastic-replicated-"+mode.String(), rec)
			err := runWithDeadline(t, func() error {
				got, rep, err := FactorLUReplicated(mt, b, c, base, GenDiagDominant(mt, b, 13), opt)
				if err != nil {
					return err
				}
				identicalLU(t, "elastic replicated", want, got, mt)
				checkAdoption(t, rep, rec, g, d, 0, victim)
				return nil
			})
			if err != nil {
				t.Fatalf("elastic replicated run failed instead of recovering: %v", err)
			}
			// Late messages drain after the run returns; poll briefly.
			deadline := time.Now().Add(10 * time.Second)
			for cl.PoolOutstanding() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d pooled tiles outstanding after the run", cl.PoolOutstanding())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// deathsCell is one cell of the tests that kill two nodes of an LU(12) on
// G-2DBC(23), a third and two thirds of the way through their owned tasks,
// under a light permanent-drop mix.
type deathsCell struct {
	name, artifact string
	victims        []int
	survivor       int   // the rank that must end up re-running every victim's share
	seed, gen      int64 // the chaos plan's seed, the generator's
	workers        int
	mode           cluster.BroadcastMode
}

// check runs the cell crash-free and then with its deaths, and holds the
// second run to the first's factors, bit for bit, and to the adoption the
// trace must show (checkAdoption). It returns the error of a run that failed
// instead of recovering.
func (c deathsCell) check(t *testing.T) error {
	const mt, b = 12, 4
	d := dist.NewG2DBC(23)
	g := dag.NewLU(mt)
	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, c.gen), Options{Workers: c.workers})
	if err != nil {
		return err
	}
	crashes := map[int]int{
		c.victims[0]: ownedTaskCount(g, d, c.victims[0]) / 3,
		c.victims[1]: 2 * ownedTaskCount(g, d, c.victims[1]) / 3,
	}
	opt, rec := chaosOpts(t, chaos.Config{Seed: c.seed, PDrop: 0.05, CrashAtTask: crashes}, 30*time.Millisecond, c.workers)
	opt.Broadcast = c.mode
	opt.Elastic = true
	dumpChaosArtifacts(t, c.artifact, rec)
	fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, c.gen), opt)
	if err != nil {
		return err
	}
	identicalLU(t, c.artifact, base, fact, mt)
	checkAdoption(t, rep, rec, g, d, c.survivor, c.victims...)
	return nil
}

// twoDeathsCells are TestElasticTwoDeathsOneAdopter's cells: ranks 5 and 9
// die, and rank 0 adopts both.
func twoDeathsCells() []deathsCell {
	var cells []deathsCell
	for _, workers := range []int{1, 4} {
		for _, mode := range broadcastModes {
			cells = append(cells, deathsCell{
				name:     fmt.Sprintf("%s/workers=%d", mode, workers),
				artifact: fmt.Sprintf("two-deaths-%s-workers%d", mode, workers),
				victims:  []int{5, 9}, survivor: 0, seed: 17, gen: 35, workers: workers, mode: mode,
			})
		}
	}
	return cells
}

// adopterDiesCells are TestElasticAdopterDies's cells: ranks 5 and 0 die,
// and rank 1 survives them; then ranks 0 and 1, and rank 2 survives.
func adopterDiesCells() []deathsCell {
	var cells []deathsCell
	for _, tc := range []struct {
		victims  []int
		survivor int
	}{
		{[]int{5, 0}, 1},
		{[]int{0, 1}, 2},
	} {
		v := tc.victims
		for _, workers := range []int{1, 4} {
			for _, mode := range broadcastModes {
				cells = append(cells, deathsCell{
					name:     fmt.Sprintf("dead=%d,%d/%s/workers=%d", v[0], v[1], mode, workers),
					artifact: fmt.Sprintf("adopter-dies-%d-%d-%s-workers%d", v[0], v[1], mode, workers),
					victims:  v, survivor: tc.survivor, seed: 19, gen: 37, workers: workers, mode: mode,
				})
			}
		}
	}
	return cells
}

// TestElasticTwoDeathsOneAdopter pins two dead owners: ranks 5 and 9 die a
// third and two thirds of the way through their owned tasks, so rank 0 adopts
// two whole shares side by side — two shares of the plan built next to its
// own, and a version one share produces for the other is a snapshot delivered
// to the consumer share's own slot, never a direct release ("adopted from the
// same node" is what releases directly, not "adopted"). A light
// permanent-drop mix rides along.
func TestElasticTwoDeathsOneAdopter(t *testing.T) {
	for _, c := range twoDeathsCells() {
		t.Run(c.name, func(t *testing.T) {
			if err := runWithDeadline(t, func() error { return c.check(t) }); err != nil {
				t.Fatalf("run with two dead owners failed instead of recovering: %v", err)
			}
		})
	}
}

// TestElasticAdopterDies pins the death of the adopter itself: the shares a
// dead rank had adopted pass, with its own, to the next lowest alive rank.
// Ranks 5 and 0 die a third and two thirds of the way through their dispatches
// — rank 0 while it replays rank 5's share, or before rank 5 dies at all,
// depending on the interleaving — and rank 1 must end up re-running both
// shares whole; then ranks 0 and 1, with rank 2 the survivor. Before the fix
// every request for a ward's versions went to a new adopter that had taken
// the dead adopter's plan share only, and the run hung.
func TestElasticAdopterDies(t *testing.T) {
	for _, c := range adopterDiesCells() {
		t.Run(c.name, func(t *testing.T) {
			if err := runWithDeadline(t, func() error { return c.check(t) }); err != nil {
				t.Fatalf("run whose adopter died failed instead of recovering: %v", err)
			}
		})
	}
}

// TestElasticAdopterPeakCountsReplayTiles pins the adopter's working-set
// peak: an adopted share's replay buffers are tiles the adopter holds, next
// to its own, from the adoption on. Rank 2 of G-2DBC(4) dies before its
// fourth pop, so rank 0's peak is at least its owned tiles plus rank 2's.
// Every node that adopted nothing — in that run, and in every run without
// elastic recovery — peaks between its owned tiles and its owned plus
// received ones.
func TestElasticAdopterPeakCountsReplayTiles(t *testing.T) {
	const mt, b, victim = 8, 4, 2
	d := dist.NewG2DBC(4)
	g := dag.NewLU(mt)
	within := func(rep *Report, rank int) {
		t.Helper()
		peak, owned := rep.PeakTilesPerNode[rank], rep.OwnedTilesPerNode[rank]
		if foot := owned + rep.ReceivedTilesPerNode[rank]; peak < owned || peak > foot {
			t.Errorf("node %d peak %d outside [owned %d, owned + received %d]", rank, peak, owned, foot)
		}
	}
	_, plain, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 41), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for rank := range d.Nodes() {
		within(plain, rank)
	}

	opt, rec := chaosOpts(t, chaos.Config{Seed: 1, CrashAtTask: map[int]int{victim: 3}}, 30*time.Millisecond, 1)
	opt.Elastic = true
	var rep *Report
	err = runWithDeadline(t, func() error {
		_, rep, err = FactorLU(mt, b, d, GenDiagDominant(mt, b, 41), opt)
		return err
	})
	if err != nil {
		t.Fatalf("elastic run failed instead of recovering: %v", err)
	}
	checkAdoption(t, rep, rec, g, d, 0, victim)
	if want := rep.OwnedTilesPerNode[0] + rep.OwnedTilesPerNode[victim]; rep.PeakTilesPerNode[0] < want {
		t.Errorf("adopter peak %d below its owned tiles plus the victim's: %d", rep.PeakTilesPerNode[0], want)
	}
	for rank := 1; rank < d.Nodes(); rank++ {
		within(rep, rank)
	}
}

// TestReRequestBudgetExhausted pins the retry cap: a version that stays
// undelivered through MaxReRequests re-requests must fail the run with a
// descriptive ErrUndelivered naming the tile, its owner, and the budget —
// not loop forever. A total blackout is not constructible through the chaos
// seam (PDrop < 1 by design, so retries can always heal), so the test drives
// the sweep directly: an expired pending wait whose owner never answers.
func TestReRequestBudgetExhausted(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngineOpt(t, 1, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel,
		Options{Workers: 1, ArrivalTimeout: time.Millisecond, MaxReRequests: 3})

	tag := cluster.Tag{I: 0, J: 0, V: 0} // owned by rank 0, never delivered
	e.res.pending[tag] = &pendingWait{backoff: time.Millisecond}
	var tickErr error
	for i := 0; i < 10 && tickErr == nil; i++ {
		e.res.pending[tag].deadline = time.Now().Add(-time.Second)
		tickErr = e.res.onTick()
	}
	if tickErr == nil {
		t.Fatal("an owner ignoring a finite retry budget did not fail the sweep")
	}
	if !errors.Is(tickErr, ErrUndelivered) {
		t.Fatalf("error lost the ErrUndelivered root cause: %v", tickErr)
	}
	if !strings.Contains(tickErr.Error(), "after 3 re-requests") ||
		!strings.Contains(tickErr.Error(), "from node 0") ||
		!strings.Contains(tickErr.Error(), "tile (0,0) v0") {
		t.Fatalf("error does not name the budget, owner, and tile: %v", tickErr)
	}
	if sent := cl.JobStats(0).BySrc(cluster.Requests)[1]; sent != 3 {
		t.Fatalf("sent %d re-requests before giving up, want exactly the budget of 3", sent)
	}
}

// TestReRequestBudgetEscalatesWhenElastic is the elastic half of the retry
// cap: the same exhausted budget must not error but presume the silent owner
// dead, pick the deterministic adopter (lowest alive rank — here, us), and
// migrate its tasks so the awaited version gets produced locally.
func TestReRequestBudgetEscalatesWhenElastic(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngineOpt(t, 1, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel,
		Options{Workers: 1, ArrivalTimeout: time.Millisecond, MaxReRequests: 2, Elastic: true})

	tag := cluster.Tag{I: 0, J: 0, V: 0} // owned by rank 0
	e.res.pending[tag] = &pendingWait{backoff: time.Millisecond}
	for i := 0; i < 5; i++ {
		e.res.pending[tag].deadline = time.Now().Add(-time.Second)
		if err := e.res.onTick(); err != nil {
			t.Fatalf("elastic sweep errored instead of escalating: %v", err)
		}
		if e.el.dead[0] {
			break
		}
	}
	if !e.el.dead[0] {
		t.Fatal("exhausted budget did not presume the silent owner dead")
	}
	if e.el.adoptedBy[0] != 1 {
		t.Fatalf("adopter of the presumed-dead owner = %d, want 1 (lowest alive rank)", e.el.adoptedBy[0])
	}
	if e.el.shares[0] == nil || e.el.adopted == 0 {
		t.Fatal("no tasks migrated off the presumed-dead owner")
	}
	if p := e.res.pending[tag]; p != nil && p.attempts != 0 {
		t.Fatalf("retry budget not reset after adoption: attempts = %d", p.attempts)
	}
}

// TestArrivalTimeoutTickerClamp is the regression for the re-request ticker
// period: ArrivalTimeout of a single nanosecond halves to zero, which
// time.NewTicker rejects with a panic — the engine must clamp the sweep
// period instead of crashing, and the (furiously re-requesting) run must
// still complete correctly on a fault-free network.
func TestArrivalTimeoutTickerClamp(t *testing.T) {
	const mt, b = 6, 4
	d := dist.NewTwoDBC(2, 2)
	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 36), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fact, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 36),
		Options{Workers: 1, ArrivalTimeout: 1})
	if err != nil {
		t.Fatalf("1ns arrival timeout failed the run: %v", err)
	}
	identicalLU(t, "clamped ticker", base, fact, mt)
}

// TestTreeRelayAfterHealedRedelivery pins the relay-dedup fix: a slot fed by
// a Resend redelivery (which carries no Forward list) must NOT swallow the
// late original copy's forward obligation — the relay dedup is keyed on a
// separate per-tag ledger, and fires exactly once.
func TestTreeRelayAfterHealedRedelivery(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngine(t, 1, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel)

	pay := filled(3, 2.5)
	tag := cluster.Tag{I: 0, J: 0, V: 0}
	// A Resend-style heal lands first: no Forward list, feeds the slot.
	if err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: tag, Lease: cluster.Lease{Payload: pay}}); err != nil {
		t.Fatal(err)
	}
	forwarded := func() int64 { return cl.JobStats(0).BySrc(cluster.Forwards)[1] }
	if forwarded() != 0 {
		t.Fatalf("heal with no forward list relayed %d hops", forwarded())
	}
	// The delayed original arrives with its subtree: it is a payload
	// duplicate, but its Forward obligation is fresh and must be honored.
	if err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: tag, Lease: cluster.Lease{Payload: pay.Clone()}, Forward: []int{3}}); err != nil {
		t.Fatal(err)
	}
	if forwarded() != 1 {
		t.Fatalf("late original's forward obligation not honored: forwarded = %d, want 1", forwarded())
	}
	if !e.hops.relayed[tag] {
		t.Fatal("relay ledger did not record the forwarded tag")
	}
	// A further duplicate carrying a forward list must not relay again.
	if err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: tag, Lease: cluster.Lease{Payload: pay.Clone()}, Forward: []int{2}}); err != nil {
		t.Fatal(err)
	}
	if forwarded() != 1 {
		t.Fatalf("duplicate re-relayed: forwarded = %d, want 1", forwarded())
	}
}
