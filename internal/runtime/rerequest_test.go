package runtime

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/plan"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// TestReRequestBudgetSparesHealthyOwner is the regression for a fault-free
// run dying of its own re-request protocol. A version's clock starts once a
// task waits for nothing else, however far its producer still is from
// running, and the owner holds the request until it publishes: a late owner
// is silent to the requester until then. The retry budget must not be held
// against an owner the node has heard from. The run here lasts far longer than the
// ≈15 ms it takes to spend three requests at a 1 ms timeout, on a healthy
// network — it used to fail with ErrUndelivered naming a live owner.
//
// The kernels sleep rather than compute for that time: CPU-bound workers
// outnumbering the cores (the race detector's CI job has two) stall a peer's
// event loop for longer than this deliberately tiny budget, and a stalled
// peer is, to any timeout, a silent one.
func TestReRequestBudgetSparesHealthyOwner(t *testing.T) {
	const mt, b = 12, 4
	d := dist.Best2DBC(4)
	slowLU := func(tk dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		time.Sleep(500 * time.Microsecond)
		return LUKernel(tk, out, inputs)
	}
	factor := func(opt Options) (*matrix.Dense, *Report) {
		t.Helper()
		out := matrix.NewDense(mt, mt, b)
		rep, err := Run(dag.NewLU(mt), d, b, GenDiagDominant(mt, b, 41), slowLU, opt,
			func(i, j int, tl *tile.Tile) { out.SetTile(i, j, tl.Clone()) })
		if err != nil {
			t.Fatalf("fault-free %v run with the re-request protocol armed (timeout %v) failed: %v",
				opt.Broadcast, opt.ArrivalTimeout, err)
		}
		return out, rep
	}
	base, _ := factor(Options{Workers: 1})
	for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
		fact, rep := factor(Options{Workers: 1, Broadcast: mode, ArrivalTimeout: time.Millisecond, MaxReRequests: 3})
		identicalLU(t, "armed fault-free run", base, fact, mt)
		if rep.Elapsed < 60*time.Millisecond {
			t.Errorf("%v: run took %v, too short to outlast a three-request budget several times over", mode, rep.Elapsed)
		}
	}
}

// TestEarlyRequestAnsweredAtPublication pins the answering rule: an owner
// asked for a version it has not published holds the request — once per
// requester, however often it is asked — and answers at publication: a
// requester among the version's destinations through the publication itself,
// any other through a Resend. A request after publication is answered from
// the cache at once.
func TestEarlyRequestAnsweredAtPublication(t *testing.T) {
	g := dag.NewLU(4)
	d := dist.NewTwoDBC(2, 2)
	cl := cluster.New(4)
	defer cl.Close()
	e := testEngineOpt(t, 0, cl, g, d, 3, GenDiagDominant(4, 3, 1), LUKernel,
		Options{Workers: 1, ArrivalTimeout: time.Minute})
	e.open()
	tag := cluster.Tag{I: 0, J: 0, V: 0} // GETRF(0), node 0's one root task
	dsts := e.pl.Dsts(e.pl.Producer(0, 0, 0))
	consumer, stranger := dsts[0], -1
	for rank := 1; rank < d.Nodes(); rank++ {
		if !slices.Contains(dsts, rank) {
			stranger = rank
		}
	}
	if stranger < 0 {
		t.Fatal("every node consumes GETRF(0); the test needs one that does not")
	}
	ask := func(from int) {
		t.Helper()
		if err := e.onArrival(cluster.Message{From: from, To: 0, Tag: tag, Req: true}); err != nil {
			t.Fatal(err)
		}
	}
	ask(consumer)
	ask(stranger)
	ask(stranger)
	stats := func(c cluster.Counter, dst int) int64 { return cl.JobStats(0).At(c, 0, dst) }
	if n := stats(cluster.Redeliveries, stranger) + stats(cluster.Redeliveries, consumer); n != 0 {
		t.Fatalf("%d redeliveries of a version not published yet", n)
	}
	if held := e.res.held[tag]; len(held) != 2 {
		t.Fatalf("held requesters %v, want the consumer and the stranger once each", held)
	}

	jb, ok := e.pop(0)
	if !ok || jb.task.Kind != dag.GETRF {
		t.Fatalf("popped %v (ok %v), want GETRF(0)", jb.task, ok)
	}
	e.finish(jb, e.kern(jb.task, jb.out, jb.inputs))
	if n := stats(cluster.Redeliveries, stranger); n != 1 {
		t.Errorf("stranger got %d redeliveries at publication, want 1", n)
	}
	if n, m := stats(cluster.Redeliveries, consumer), stats(cluster.Messages, consumer); n != 0 || m != 1 {
		t.Errorf("consumer got %d messages, %d of them redeliveries: want the publication alone", m, n)
	}
	if len(e.res.held) != 0 {
		t.Errorf("requests still held after publication: %v", e.res.held)
	}
	got, ok := cl.Comm(stranger).TryRecv()
	if !ok || got.Tag != tag || !got.Payload.EqualApprox(jb.out, 0) {
		t.Fatalf("stranger's mailbox holds %v (ok %v), want the published GETRF(0)", got.Tag, ok)
	}
	got.Release()

	ask(stranger)
	if n := stats(cluster.Redeliveries, stranger); n != 2 {
		t.Errorf("a request after publication got %d redeliveries in all, want 2", n-1)
	}
}

// lossy is a network that loses the first copy of each listed tag bound for
// node to, and delivers everything else.
type lossy struct {
	mu   sync.Mutex
	to   int
	lose map[cluster.Tag]bool // job-local tags, until lost
}

func (n *lossy) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	tag := msg.Tag
	tag.Job = 0
	n.mu.Lock()
	lost := msg.To == n.to && msg.Payload != nil && n.lose[tag]
	if lost {
		delete(n.lose, tag)
	}
	n.mu.Unlock()
	if lost {
		msg.Release()
		return
	}
	deliver(msg)
}

// TestTaskShortTwoLostVersionsArmsBoth pins the arming rule on tasks short
// two lost versions. On the node owning tile (2, 2) of a 2×2 grid, every
// GEMM(l=1) reads two remote panel tiles and waits for a local predecessor
// too, and every panel tile read there is lost on its way to the node: no
// task on it is ever short one version. Once a task's predecessor is done it waits for nothing
// but its two, and both clocks start at once: each version is re-requested,
// and the run completes with the fault-free factors. A rule that armed only a
// task's last missing version would arm nothing, and the run would hang.
func TestTaskShortTwoLostVersionsArmsBoth(t *testing.T) {
	const mt, b = 6, 4
	d := dist.NewTwoDBC(2, 2)
	g := dag.NewLU(mt)
	gen := GenDiagDominant(mt, b, 5)
	want, _, err := FactorLU(mt, b, d, gen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(g, d)
	if err != nil {
		t.Fatal(err)
	}
	node := d.Owner(2, 2)
	net := &lossy{to: node, lose: map[cluster.Tag]bool{}}
	lo, hi := pl.Tasks(node)
	for task := lo; task < hi; task++ {
		if tk := pl.Task(task); tk.Kind != dag.GEMMLU || tk.L != 1 {
			continue
		}
		remote := 0
		for _, ref := range pl.Inputs(task) {
			if ref < 0 {
				p := pl.SlotProducer(^ref)
				i, j := pl.TileCoords(pl.Out(p))
				net.lose[cluster.Tag{I: int32(i), J: int32(j), V: pl.Version(p)}] = true
				remote++
			}
		}
		if remote != 2 || pl.NumDeps(task) != 3 {
			t.Fatalf("%v reads %d remote versions and waits for %d tasks, want 2 and 3", pl.Task(task), remote, pl.NumDeps(task))
		}
	}
	if len(net.lose) != 4 {
		t.Fatalf("GEMM(l=1) on node %d read %d remote versions, want 4", node, len(net.lose))
	}
	lost := make(map[string]int)
	for tag := range net.lose {
		lost[tag.String()] = 0
	}

	cl := cluster.NewWithOptions(d.Nodes(), cluster.Options{Net: net})
	defer cl.Close()
	rec := &trace.Recorder{}
	var got *matrix.Dense
	err = runWithDeadline(t, func() error {
		var err error
		got, _, err = FactorLU(mt, b, d, gen, Options{Cluster: cl, Recorder: rec, ArrivalTimeout: 20 * time.Millisecond})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	identicalLU(t, "two lost versions", want, got, mt)
	if len(net.lose) != 0 {
		t.Fatalf("versions %v were never sent to node %d", net.lose, node)
	}
	for _, f := range rec.Faults {
		if _, ok := lost[f.Tag]; ok && f.Kind == "re-request" && f.Src == node {
			lost[f.Tag]++
		}
	}
	for tag, n := range lost {
		if n == 0 {
			t.Errorf("lost version %s was never re-requested", tag)
		}
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
