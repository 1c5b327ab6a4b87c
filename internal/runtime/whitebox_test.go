package runtime

import (
	"strings"
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

// TestDuplicateArrivalIsAnError: the network delivers every message once, so
// a second arrival of a version the node already took in, even an identical
// one, is an internal error naming the node and the tag. The repeat is
// released and changes nothing: no dependency count, no second retained
// copy, no second delivery counted.
func TestDuplicateArrivalIsAnError(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngine(t, 1, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel)

	// Node 1 owns tile (0,1): its TRSMRow reads the GETRF output (0,0) at
	// version 0, so the arrival is retained (readers > 0).
	pay := filled(3, 2.5)
	tag := cluster.Tag{I: 0, J: 0, V: 0}
	if err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: tag, Lease: cluster.Lease{Payload: pay}}); err != nil {
		t.Fatal(err)
	}
	unfed := e.unfedSlots()
	remaining := append([]int32(nil), e.remaining...)
	err := e.onArrival(cluster.Message{From: 0, To: 1, Tag: tag, Lease: cluster.Lease{Payload: pay.Clone()}})
	if want := "tile (0,0)v0 from node 0 reached node 1 twice"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("second arrival returned %v, want an error naming %q", err, want)
	}
	if e.held != 1 || e.recvTotal != 1 || e.recv[0].Payload != pay {
		t.Fatalf("held = %d, recvTotal = %d: the repeat must not be taken in", e.held, e.recvTotal)
	}
	if e.unfedSlots() != unfed {
		t.Fatalf("unfed slots changed on a repeat: %d -> %d", unfed, e.unfedSlots())
	}
	for k, rem := range e.remaining {
		if rem != remaining[k] {
			t.Fatalf("remaining[%d] changed on a repeat: %d -> %d", k, remaining[k], rem)
		}
	}
}

// TestConflictingDuplicateArrivalErrors: a re-delivered tag whose payload
// differs from the retained copy surfaces as a descriptive error (joined
// into Run's node errors), not a process panic — as every repeat does.
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

// TestUnconsumedArrivalDropped: a version no slot of the node awaits is
// dropped — released, neither retained nor counted as taken in — and
// reported as an internal error naming the node and the tag.
func TestUnconsumedArrivalDropped(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngine(t, 1, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel)

	// Version 99 of tile (0,0) has no registered reader on node 1.
	msg := cluster.Message{From: 0, To: 1, Tag: cluster.Tag{I: 0, J: 0, V: 99}, Lease: cluster.Lease{Payload: tile.New(3, 3)}}
	err := e.onArrival(msg)
	if want := "node 1 awaits no tile (0,0)v99"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("unawaited arrival returned %v, want an error naming %q", err, want)
	}
	if e.held != 0 || e.recvTotal != 0 {
		t.Fatalf("unawaited arrival taken in: held %d, recvTotal %d", e.held, e.recvTotal)
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
	e.run()
	if e.err != nil {
		t.Fatal(e.err)
	}
	if len(e.remaining) != 0 {
		t.Fatal("node 2 owns tasks under a single-node distribution")
	}
}
