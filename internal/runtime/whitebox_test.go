package runtime

import (
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
	"anybc/internal/tile"
)

// testEngine builds one single-worker engine the way RunPlan does.
func testEngine(t testing.TB, rank int, cl *cluster.Cluster, g dag.Graph,
	d dist.Distribution, b int, gen func(i, j int) *tile.Tile, kern Kernel) *engine {
	t.Helper()
	return testEngineOpt(t, rank, cl, g, d, b, gen, kern, Options{Workers: 1})
}

// testEngineOpt builds one engine the way RunPlan does — compiled plan,
// normalized options — and fills its tiles as the first step of run would.
func testEngineOpt(t testing.TB, rank int, cl *cluster.Cluster, g dag.Graph,
	d dist.Distribution, b int, gen func(i, j int) *tile.Tile, kern Kernel, opt Options) *engine {
	t.Helper()
	pl, err := plan.Compile(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.normalize(d); err != nil {
		t.Fatal(err)
	}
	e := newEngine(rank, cl.Comm(rank), pl, gen, kern, opt, time.Now())
	e.generate()
	return e
}

// unfedSlots counts the slots whose plan waiters are still to be released —
// the flat counterpart of the old waiters map's length.
func (e *engine) unfedSlots() int {
	n := 0
	for _, fed := range e.fed {
		if !fed {
			n++
		}
	}
	return n
}

// filled returns an n×n tile with every element v.
func filled(n int, v float64) *tile.Tile {
	t := tile.New(n, n)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// TestDuplicateArrivalIdempotent exercises the protocol guard: re-delivery
// of a tile version the node already retains must be dropped idempotently —
// no dependency count corrupted, no crash, no second copy retained.
// Distinct versions of the same tile are legal under the versioned protocol;
// only an exact tag repeat is a re-delivery.
func TestDuplicateArrivalIdempotent(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	gen := GenDiagDominant(4, 3, 1)
	e := testEngine(t, 1, cl, g, d, 3, gen, LUKernel)

	// Node 1 owns tile (0,1): its TRSMRow reads the GETRF output (0,0) at
	// version 0, so the arrival is stored (readers > 0) and a repeat with the
	// same payload is an identical re-delivery.
	pay := filled(3, 2.5)
	msg := cluster.Message{From: 0, To: 1, Tag: cluster.Tag{I: 0, J: 0, V: 0}, Lease: cluster.Lease{Payload: pay}}
	if err := e.onArrival(msg); err != nil {
		t.Fatal(err)
	}
	waitersBefore := e.unfedSlots()
	remainingBefore := append([]int32(nil), e.remaining...)
	if err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: msg.Tag, Lease: cluster.Lease{Payload: pay.Clone()}}); err != nil {
		t.Fatalf("identical re-delivery returned error: %v", err)
	}
	if e.held != 1 {
		t.Fatalf("held = %d, want 1 (the duplicate must not be retained)", e.held)
	}
	if e.recvTotal != 1 {
		t.Fatalf("recvTotal = %d, want 1 (duplicate must not count as a delivery)", e.recvTotal)
	}
	if e.unfedSlots() != waitersBefore {
		t.Fatalf("waiters changed on duplicate: %d -> %d", waitersBefore, e.unfedSlots())
	}
	for idx, rem := range e.remaining {
		if rem != remainingBefore[idx] {
			t.Fatalf("remaining[%d] changed on duplicate: %d -> %d", idx, remainingBefore[idx], rem)
		}
	}
}

// TestConflictingDuplicateArrivalErrors: a re-delivered tag whose payload
// differs from the retained copy is a genuine protocol violation and must
// surface as a descriptive error (joined into Run's node errors), not a
// process panic.
func TestConflictingDuplicateArrivalErrors(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngine(t, 1, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel)

	pay := filled(3, 1)
	tag := cluster.Tag{I: 0, J: 0, V: 0}
	if err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: tag, Lease: cluster.Lease{Payload: pay}}); err != nil {
		t.Fatal(err)
	}
	conflict := filled(3, -7)
	err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: tag, Lease: cluster.Lease{Payload: conflict}})
	if err == nil {
		t.Fatal("conflicting duplicate did not return an error")
	}
}

// TestUnconsumedArrivalDropped: a version no slot of the node awaits must be
// released immediately — neither retained nor counted as taken in.
func TestUnconsumedArrivalDropped(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngine(t, 1, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel)

	// Version 99 of tile (0,0) has no registered reader on node 1.
	msg := cluster.Message{From: 0, To: 1, Tag: cluster.Tag{I: 0, J: 0, V: 99}, Lease: cluster.Lease{Payload: tile.New(3, 3)}}
	if err := e.onArrival(msg); err != nil {
		t.Fatal(err)
	}
	if e.held != 0 {
		t.Fatalf("unconsumed arrival retained: %d tiles", e.held)
	}
	if e.recvTotal != 0 {
		t.Fatalf("recvTotal = %d, want 0: nothing here awaited the version", e.recvTotal)
	}
}

// TestEngineOwnedDiscovery checks that engines partition the task set
// exactly: every task owned by exactly one engine, and owned tiles
// materialized.
func TestEngineOwnedDiscovery(t *testing.T) {
	g := dag.NewCholesky(6)
	d := dist.NewSBCPair(4)
	cl := cluster.New(d.Nodes())
	defer cl.Close()
	gen := GenSPD(6, 4, 2)
	total := 0
	for rank := 0; rank < d.Nodes(); rank++ {
		e := testEngine(t, rank, cl, g, d, 4, gen, CholeskyKernel)
		total += len(e.remaining)
		for k := range e.remaining {
			task := e.pl.Task(e.lo + int32(k))
			oi, oj := g.OutputTile(task)
			if d.Owner(oi, oj) != rank {
				t.Fatalf("engine %d owns task %v with owner %d", rank, task, d.Owner(oi, oj))
			}
			if e.tile(e.pl.Out(e.lo+int32(k))) == nil {
				t.Fatalf("engine %d did not materialize tile (%d,%d)", rank, oi, oj)
			}
		}
		// Remaining counts must equal NumDependencies.
		for k, rem := range e.remaining {
			task := e.pl.Task(e.lo + int32(k))
			if int(rem) != g.NumDependencies(task) {
				t.Fatalf("engine %d task %v remaining %d != deps %d",
					rank, task, rem, g.NumDependencies(task))
			}
		}
		// Reader counts cover exactly the remote input references.
		remoteRefs := 0
		for k := range e.remaining {
			for _, ref := range e.pl.Inputs(e.lo + int32(k)) {
				if ref < 0 {
					remoteRefs++
				}
			}
		}
		sum := int32(0)
		for _, n := range e.readers {
			sum += n
		}
		if int(sum) != remoteRefs {
			t.Fatalf("engine %d reader counts %d != remote input refs %d", rank, sum, remoteRefs)
		}
	}
	if total != g.NumTasks() {
		t.Fatalf("engines own %d tasks, graph has %d", total, g.NumTasks())
	}
}

// TestEmptyEngineRuns: a node owning nothing must terminate immediately.
func TestEmptyEngineRuns(t *testing.T) {
	g := dag.NewLU(2)
	// Distribution mapping everything to node 0 of 3.
	d := testDist{p: 3, owner: func(i, j int) int { return 0 }}
	cl := cluster.New(3)
	defer cl.Close()
	e := testEngine(t, 2, cl, g, d, 3, GenDiagDominant(2, 3, 1), LUKernel)
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	if len(e.remaining) != 0 {
		t.Fatal("node 2 owns tasks under a single-node distribution")
	}
}
