package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
	"anybc/internal/tile"
)

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func waitDone(t testing.TB, srv *Server, id JobID) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Wait(ctx, id); err != nil {
		t.Fatalf("job %d: %v", id, err)
	}
}

// drainPool fails the test if the shared cluster's in-flight payloads
// (PoolOutstanding) do not drain to zero — the cross-job leakage witness at
// the memory level. A late message is released by its sender as it finds
// its job's plane gone, which may follow the job's end, so poll.
func drainPool(t testing.TB, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Cluster().PoolOutstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shared cluster still holds %d payloads in flight", srv.Cluster().PoolOutstanding())
		}
		time.Sleep(time.Millisecond)
	}
}

// soloLU runs the same job on a dedicated cluster — the golden reference a
// multi-tenant run must match bit for bit.
func soloLU(t testing.TB, mt, b, P int, seed int64, workers int) *matrix.Dense {
	t.Helper()
	want, _, err := runtime.FactorLU(mt, b, dist.NewG2DBC(P),
		runtime.GenDiagDominant(mt, b, seed), runtime.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func requireDenseIdentical(t testing.TB, got, want *matrix.Dense, mt int, label string) {
	t.Helper()
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
				t.Fatalf("%s: tile (%d,%d) not bit-identical to the solo run", label, i, j)
			}
		}
	}
}

// TestConcurrentLUBitIdentical is the headline acceptance case: 8 concurrent
// 4×4-tile LU jobs multiplexed over one shared 4-node cluster (run under
// -race in CI) must each produce factors bit-identical to a solo
// runtime.FactorLU of the same seed, with per-namespace tile accounting
// showing no cross-job leakage.
func TestConcurrentLUBitIdentical(t *testing.T) {
	const mt, b, P, jobs = 4, 4, 4, 8
	srv := newTestServer(t, Config{P: P, B: b, MaxConcurrent: jobs, Workers: 2})

	ids := make([]JobID, jobs)
	for i := range ids {
		id, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		waitDone(t, srv, id)
	}

	soloRep := make(map[int64]*runtime.Report)
	for i, id := range ids {
		seed := int64(100 + i)
		res, rep, err := srv.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep, err := runtime.FactorLU(mt, b, dist.NewG2DBC(P),
			runtime.GenDiagDominant(mt, b, seed), runtime.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		soloRep[seed] = wantRep
		requireDenseIdentical(t, res.Dense, want, mt, fmt.Sprintf("job %d", id))

		// Namespace isolation in the accounting: the job owns exactly the
		// tiles a dedicated cluster would own, its logical traffic matches
		// the solo run, and its working-set peak never exceeds its own
		// footprint — a leaked co-tenant tile would inflate all three.
		for n := range rep.OwnedTilesPerNode {
			if rep.OwnedTilesPerNode[n] != wantRep.OwnedTilesPerNode[n] {
				t.Errorf("job %d node %d owns %d tiles, solo owns %d",
					id, n, rep.OwnedTilesPerNode[n], wantRep.OwnedTilesPerNode[n])
			}
			foot := rep.OwnedTilesPerNode[n] + rep.ReceivedTilesPerNode[n]
			if rep.PeakTilesPerNode[n] > foot {
				t.Errorf("job %d node %d peak %d above its own footprint %d",
					id, n, rep.PeakTilesPerNode[n], foot)
			}
		}
		if got, want := rep.Stats.TotalMessages(), wantRep.Stats.TotalMessages(); got != want {
			t.Errorf("job %d logged %d messages, solo run %d", id, got, want)
		}
	}
	drainPool(t, srv)

	st := srv.Stats()
	if st.Completed != jobs || st.Failed != 0 || st.Rejected != 0 {
		t.Errorf("stats: %+v", st)
	}
	// One distribution construction serves all 8 jobs: each looks it up at
	// submission and again to run.
	if st.CacheMisses != 1 || st.CacheHits != 2*jobs-1 {
		t.Errorf("pattern cache: %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
	if !strings.Contains(srv.Summary(), "8 done") {
		t.Errorf("summary missing completions:\n%s", srv.Summary())
	}
}

// TestMixedKindsSoak is the race soak: concurrent LU and Cholesky tenants of
// different seeds and priorities over one substrate, every result verified
// numerically and the LU results bit-identical to solo runs.
func TestMixedKindsSoak(t *testing.T) {
	const mt, b, P, each = 6, 4, 5, 4
	srv := newTestServer(t, Config{P: P, B: b, MaxConcurrent: 2 * each, Workers: 2})

	var luIDs, chIDs []JobID
	for i := 0; i < each; i++ {
		lu, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: int64(i), Priority: i - 2})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := srv.Submit(JobSpec{Kind: KindCholesky, Mt: mt, Seed: int64(i), Priority: 2 - i})
		if err != nil {
			t.Fatal(err)
		}
		luIDs, chIDs = append(luIDs, lu), append(chIDs, ch)
	}
	for _, id := range append(append([]JobID(nil), luIDs...), chIDs...) {
		waitDone(t, srv, id)
	}

	for i, id := range luIDs {
		res, _, err := srv.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		orig := matrix.NewDiagDominant(mt, b, int64(i))
		if r := matrix.ResidualLU(orig, res.Dense); r > 1e-10 {
			t.Errorf("LU job %d residual %g", id, r)
		}
		requireDenseIdentical(t, res.Dense, soloLU(t, mt, b, P, int64(i), 2), mt,
			fmt.Sprintf("LU job %d", id))
	}
	for i, id := range chIDs {
		res, _, err := srv.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		orig := matrix.NewSPD(mt, b, int64(i))
		if r := matrix.ResidualCholesky(orig, res.Chol); r > 1e-10 {
			t.Errorf("Cholesky job %d residual %g", id, r)
		}
	}
	drainPool(t, srv)
}

// TestRejectedAndCanceledLeaveOthersUnchanged is the isolation acceptance
// case: one submission rejected for exceeding the memory budget and one job
// cancelled mid-queue must leave every other tenant's factors bit-identical
// to solo runs, with the shared pool balanced afterwards.
func TestRejectedAndCanceledLeaveOthersUnchanged(t *testing.T) {
	const mt, b, P = 10, 4, 4
	srv := newTestServer(t, Config{
		P: P, B: b, MaxConcurrent: 2, Workers: 2,
		MemBudgetBytes: 4 * jobBytes(mt, b),
	})

	// A and B fill both slots.
	a, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bID, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Over the whole budget: rejected at submission, descriptively.
	if _, err := srv.Submit(JobSpec{Kind: KindLU, Mt: 24, Seed: 3}); err == nil {
		t.Fatal("oversized job was admitted")
	} else if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "budget exceeded") {
		t.Fatalf("oversized job rejection = %v", err)
	}
	// C waits in the queue behind the full slots; cancel it there.
	c, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Cancel(c); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st, _ := srv.Status(c); st.State != StateCanceled && st.State != StateRunning {
		t.Fatalf("cancelled job state %s", st.State)
	}

	for _, id := range []JobID{a, bID, d} {
		waitDone(t, srv, id)
	}
	ctx, cancelWait := context.WithTimeout(context.Background(), time.Minute)
	defer cancelWait()
	if err := srv.Wait(ctx, c); err == nil {
		t.Fatal("cancelled job reported success")
	}

	for _, jb := range []struct {
		id   JobID
		seed int64
	}{{a, 1}, {bID, 2}, {d, 5}} {
		res, _, err := srv.Result(jb.id)
		if err != nil {
			t.Fatal(err)
		}
		requireDenseIdentical(t, res.Dense, soloLU(t, mt, b, P, jb.seed, 2), mt,
			fmt.Sprintf("job %d beside a rejection and a cancellation", jb.id))
	}
	drainPool(t, srv)
	st := srv.Stats()
	if st.Rejected != 1 || st.Canceled != 1 || st.Completed != 3 {
		t.Errorf("stats after mixed outcomes: %+v", st)
	}
}

// TestQueueBackpressure: a full admission queue rejects with a descriptive
// error instead of blocking or dropping silently.
func TestQueueBackpressure(t *testing.T) {
	const mt, b, P = 12, 4, 4
	srv := newTestServer(t, Config{P: P, B: b, MaxConcurrent: 1, QueueCap: 2})

	ids := make([]JobID, 0, 3)
	for i := 0; i < 3; i++ { // one runs, two queue
		id, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	_, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: 9})
	if err == nil {
		t.Fatal("fourth job was admitted past the queue cap")
	}
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "admission queue full") {
		t.Fatalf("queue-full rejection = %v", err)
	}
	for _, id := range ids {
		waitDone(t, srv, id)
	}
	if _, err := srv.Submit(JobSpec{Kind: KindLU, Mt: 2, Seed: 10}); err != nil {
		t.Fatalf("queue drained but submission still rejected: %v", err)
	}
}

// TestSubmitValidation pins the descriptive rejection surface FuzzSubmit
// explores randomly: every malformed spec is an ErrRejected naming its
// defect, never a panic or a wedge.
func TestSubmitValidation(t *testing.T) {
	srv := newTestServer(t, Config{P: 4, B: 4, MaxMt: 16, MemBudgetBytes: 1 << 24})
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"missing kind", JobSpec{Mt: 4}, "missing kind"},
		{"unknown kind", JobSpec{Kind: "qr", Mt: 4}, "unknown kind"},
		{"mt zero", JobSpec{Kind: KindLU, Mt: 0}, "positive tile dimension"},
		{"mt negative", JobSpec{Kind: KindLU, Mt: -3}, "positive tile dimension"},
		{"mt over cap", JobSpec{Kind: KindLU, Mt: 17}, "exceeds the service cap"},
		{"b mismatch", JobSpec{Kind: KindLU, Mt: 4, B: 8}, "mismatches the service tile size"},
		{"oversized P", JobSpec{Kind: KindLU, Mt: 4, P: 4096}, "mismatches the shared cluster"},
		{"undersized P", JobSpec{Kind: KindLU, Mt: 4, P: 2}, "mismatches the shared cluster"},
		{"unknown scheme", JobSpec{Kind: KindLU, Mt: 4, Scheme: "hilbert"}, "unknown scheme"},
		{"sbc bad P", JobSpec{Kind: KindCholesky, Mt: 4, Scheme: "sbc"}, "unusable for P=4"},
		{"workers negative", JobSpec{Kind: KindLU, Mt: 4, Workers: -1}, "workers"},
		{"workers huge", JobSpec{Kind: KindLU, Mt: 4, Workers: 999}, "workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := srv.Submit(tc.spec)
			if err == nil {
				t.Fatalf("spec %+v was admitted", tc.spec)
			}
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("rejection does not wrap ErrRejected: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not name %q", err, tc.want)
			}
		})
	}
	if st := srv.Stats(); st.Rejected != int64(len(cases)) {
		t.Errorf("rejected counter %d, want %d", st.Rejected, len(cases))
	}
}

// TestChaosTenantCrash: a tenant whose kernel fails mid-run fails, and only
// that job: its co-tenants never notice — an LU tenant's factors stay
// bit-identical to a solo run, a Cholesky tenant's residual tiny. The
// doomed job is the one LU of size 5: the test's factorLU runs it with a
// kernel that fails on its second panel. (The name predates the failing
// kernel: the job's node used to be crashed by fault injection.)
func TestChaosTenantCrash(t *testing.T) {
	const mt, b, P, doomedMt = 6, 4, 4, 5
	errBoom := errors.New("injected kernel failure")
	t.Cleanup(func() { factorLU = runtime.FactorLU })
	factorLU = func(mt, b int, d dist.Distribution, gen func(i, j int) *tile.Tile, opt runtime.Options) (*matrix.Dense, *runtime.Report, error) {
		if mt != doomedMt {
			return runtime.FactorLU(mt, b, d, gen, opt)
		}
		kern := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
			if task == (dag.Task{Kind: dag.GETRF, I: 1, J: 1, L: 1}) {
				return errBoom
			}
			return runtime.LUKernel(task, out, in)
		}
		_, err := runtime.Run(dag.NewLU(mt), d, b, gen, kern, opt, nil)
		return nil, nil, err
	}
	srv := newTestServer(t, Config{P: P, B: b, MaxConcurrent: 4, Workers: 2})

	bystander, err := srv.Submit(JobSpec{Kind: KindLU, Mt: mt, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := srv.Submit(JobSpec{Kind: KindLU, Mt: doomedMt, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := srv.Submit(JobSpec{Kind: KindCholesky, Mt: mt, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	waitDone(t, srv, bystander)
	waitDone(t, srv, quiet)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Wait(ctx, doomed); err == nil {
		t.Fatal("failed job reported success")
	} else if ctx.Err() != nil {
		t.Fatal("failed job wedged")
	}
	if st, _ := srv.Status(doomed); st.State != StateFailed || !strings.Contains(st.Error, errBoom.Error()) {
		t.Fatalf("failed job state %s, error %q: want failed with the kernel's error", st.State, st.Error)
	}

	res, _, err := srv.Result(bystander)
	if err != nil {
		t.Fatal(err)
	}
	requireDenseIdentical(t, res.Dense, soloLU(t, mt, b, P, 7, 2), mt, "LU co-tenant of a failed job")
	resQ, _, err := srv.Result(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.ResidualCholesky(matrix.NewSPD(mt, b, 9), resQ.Chol); r > 1e-10 {
		t.Errorf("co-tenant residual %g beside a failed job", r)
	}
	drainPool(t, srv)
}

// TestPriorityOrdering pins the admission queue's comparator.
func TestPriorityOrdering(t *testing.T) {
	var q jobQueue
	for i, pri := range []int{0, 5, -3, 5} {
		heap.Push(&q, &job{id: JobID(i + 1), spec: JobSpec{Priority: pri}, seq: int64(i)})
	}
	var order []JobID
	for q.Len() > 0 {
		order = append(order, heap.Pop(&q).(*job).id)
	}
	want := []JobID{2, 4, 1, 3} // priority desc, FIFO within a priority
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}
