package runtime

import (
	"sync"
	"testing"
	"time"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// TestLayersArmedOnlyWhenAsked pins the core/layer cut from both sides:
// newEngine builds exactly the components Options.normalize armed — none at
// all for Options{} or a crash-only chaos plan — and sets a crash index on the
// rank a chaos plan names only; and arming resilience on a fault-free run
// changes nothing observable: bit-identical factors, the same kernels per
// node, the same message count, not one re-request.
func TestLayersArmedOnlyWhenAsked(t *testing.T) {
	const mt, b, crashRank = 6, 4, 2
	d := dist.NewTwoDBC(2, 2)
	mustChaos := func(cfg chaos.Config) *chaos.Plan {
		p, err := chaos.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name            string
		opt             Options
		res, crash      bool // crash: on crashRank only
		arrivalDefaults bool
	}{
		{name: "zero Options"},
		{name: "ArrivalTimeout", opt: Options{ArrivalTimeout: time.Second}, res: true},
		// A crash-only plan loses no delivery: it arms the crash and nothing
		// else — no network seam, no re-request clocks.
		{name: "Chaos crash-only", opt: Options{Chaos: mustChaos(chaos.Config{Seed: 1, CrashAtTask: map[int]int{crashRank: 3}})},
			crash: true},
		{name: "Chaos lossy", opt: Options{Chaos: mustChaos(chaos.Config{Seed: 1, PDrop: 0.1})},
			res: true, arrivalDefaults: true},
	}
	pl, err := plan.Compile(dag.NewLU(mt), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			if err := opt.normalize(d); err != nil {
				t.Fatal(err)
			}
			if tc.arrivalDefaults && opt.ArrivalTimeout != defaultArrivalTimeout {
				t.Errorf("normalized ArrivalTimeout = %v, want the %v default", opt.ArrivalTimeout, defaultArrivalTimeout)
			}
			cl := cluster.New(d.Nodes())
			defer cl.Close()
			for rank := 0; rank < d.Nodes(); rank++ {
				e := newEngine(rank, cl.Comm(rank), pl, GenDiagDominant(mt, b, 5), LUKernel, opt, time.Now())
				if got := e.res != nil; got != tc.res {
					t.Errorf("rank %d: resilience built = %v, want %v", rank, got, tc.res)
				}
				if got, want := e.crashAt >= 0, tc.crash && rank == crashRank; got != want {
					t.Errorf("rank %d: crash index %d set = %v, want %v", rank, e.crashAt, got, want)
				}
			}
		})
	}

	gen := GenDiagDominant(mt, b, 5)
	plain, plainRep, err := FactorLU(mt, b, d, gen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A timeout no healthy delivery approaches: the layers are built and
	// called at every point, and have nothing to do.
	armed, armedRep, err := FactorLU(mt, b, d, gen, Options{ArrivalTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	identicalLU(t, "armed but idle", plain, armed, mt)
	for rank, n := range plainRep.TasksPerNode {
		if armedRep.TasksPerNode[rank] != n {
			t.Errorf("rank %d ran %d kernels armed, %d unarmed", rank, armedRep.TasksPerNode[rank], n)
		}
	}
	if got, want := armedRep.Stats.TotalMessages(), plainRep.Stats.TotalMessages(); got != want {
		t.Errorf("armed run sent %d messages, unarmed %d", got, want)
	}
	if n := armedRep.Stats.Total(cluster.Requests); n != 0 {
		t.Errorf("fault-free armed run sent %d re-requests", n)
	}
}

// heldRequests is a faithful network that parks every re-request until
// release, then delivers each of them dup times over.
type heldRequests struct {
	mu       sync.Mutex
	held     []cluster.Message
	deliver  func(cluster.Message)
	released bool
	enough   chan struct{} // closed once want requests are parked
	want     int
}

func (h *heldRequests) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	h.mu.Lock()
	if !msg.Req || h.released {
		h.mu.Unlock()
		deliver(msg)
		return
	}
	h.held, h.deliver = append(h.held, msg), deliver
	if len(h.held) == h.want {
		close(h.enough)
	}
	h.mu.Unlock()
}

func (h *heldRequests) release(dup int) (delivered int) {
	h.mu.Lock()
	held := h.held
	h.held, h.released = nil, true
	h.mu.Unlock()
	for _, msg := range held {
		for k := 0; k < dup; k++ {
			h.deliver(msg)
		}
	}
	return dup * len(held)
}

// TestReportStatsQuiescent is the regression for the torn Report.Stats
// snapshot (the "effective volume 374 != 376" flake of
// TestChaosRegressionG2DBC23 under -race): re-requests still queued when the
// last node finishes are answered by the owners' post-loop servers, and each
// answer charges the ledger. The network seam parks every re-request of a
// fault-free run — spurious ones, provoked by a 1ns arrival timeout — and
// floods them in, a hundred copies each, from inside the graph's final
// kernel, when every other node has no work left: thousands of redeliveries
// are then owed while RunPlan tears down. The report must count every one of
// them, and leave the fault-free volume intact.
func TestReportStatsQuiescent(t *testing.T) {
	const mt, b, dup = 6, 4, 100
	d := dist.NewTwoDBC(2, 2)
	gen := GenDiagDominant(mt, b, 9)
	_, base, err := FactorLU(mt, b, d, gen, Options{})
	if err != nil {
		t.Fatal(err)
	}

	net := &heldRequests{enough: make(chan struct{}), want: 64}
	cl := cluster.NewWithOptions(d.Nodes(), cluster.Options{Net: net})
	defer cl.Close()
	flooded := 0
	kern := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
		switch {
		case task.Kind == dag.GETRF && task.L == 0:
			// Hold the whole graph back until the peers' sweeps have asked
			// for what node 0 has not produced yet.
			<-net.enough
		case task.Kind == dag.GETRF && task.L == mt-1:
			flooded = net.release(dup)
		}
		return LUKernel(task, out, in)
	}
	rep, err := Run(dag.NewLU(mt), d, b, gen, kern,
		Options{Cluster: cl, ArrivalTimeout: 1, MaxReRequests: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flooded < dup*net.want {
		t.Fatalf("flooded only %d re-requests, want at least %d", flooded, dup*net.want)
	}
	if got := rep.Stats.Total(cluster.Redeliveries); got != int64(flooded) {
		t.Errorf("report counts %d redeliveries, %d re-requests were delivered to owners holding the version", got, flooded)
	}
	if eff, want := rep.Stats.TotalMessages()-rep.Stats.Total(cluster.Redeliveries), base.Stats.TotalMessages(); eff != want {
		t.Errorf("effective volume %d != fault-free %d: the snapshot tore", eff, want)
	}
}

// twice is a network that delivers every payload message two times over.
type twice struct{}

func (twice) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	if msg.Payload != nil {
		deliver(msg.Dup())
	}
	deliver(msg)
}

// TestUnarmedTreeRelayFiresOncePerTag pins that exactly-once relay is the
// core's, not the resilience layer's: the network seam of a shared cluster is
// not the job's to choose, so a job that armed nothing can still see every
// tree hop twice — and must forward each subtree once, or Forwards, Hops and
// the deliveries behind them double. The same job with resilience armed
// routes identically.
func TestUnarmedTreeRelayFiresOncePerTag(t *testing.T) {
	const mt, b = 8, 4
	d := dist.NewG2DBC(7)
	gen := GenDiagDominant(mt, b, 3)
	want, base, err := FactorLU(mt, b, d, gen, Options{Broadcast: cluster.BroadcastTree})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.TotalForwards() == 0 {
		t.Fatal("shape has no interior tree hops; the test would pin nothing")
	}
	for _, opt := range []Options{{}, {ArrivalTimeout: time.Minute}} {
		cl := cluster.NewWithOptions(d.Nodes(), cluster.Options{Net: twice{}, Broadcast: cluster.BroadcastTree})
		opt.Cluster = cl
		got, rep, err := FactorLU(mt, b, d, gen, opt)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		identicalLU(t, "duplicating tree network", want, got, mt)
		for _, c := range []cluster.Counter{cluster.Forwards, cluster.Hops, cluster.Messages} {
			if g, w := rep.Stats.Total(c), base.Stats.Total(c); g != w {
				t.Errorf("ArrivalTimeout %v: counter %d = %d under duplication, %d on a faithful network", opt.ArrivalTimeout, c, g, w)
			}
		}
	}
}

// lateCopy is a network that delivers every payload message at once and a
// second time after a delay.
type lateCopy struct {
	after time.Duration
	late  sync.WaitGroup // the second copies still to deliver
}

func (n *lateCopy) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	if msg.Payload != nil {
		dup := msg.Dup()
		n.late.Add(1)
		time.AfterFunc(n.after, func() {
			defer n.late.Done()
			deliver(dup)
		})
	}
	deliver(msg)
}

// TestLateDuplicatesTakenInOnce pins the one arrival rule: a version is taken
// in — counted in ReceivedTilesPerNode, put on the trace — only while a slot
// of the node still awaits it, armed or not. The seam of a shared cluster
// delivers every payload again 20 ms later, when the first copy's last
// reader has long run and released it, and the sleeping kernels keep the run
// going past the late copies: neither the bare core nor the resilience layer
// may count them.
func TestLateDuplicatesTakenInOnce(t *testing.T) {
	const mt, b = 8, 4
	d := dist.NewG2DBC(7)
	gen := GenDiagDominant(mt, b, 3)
	pl, err := plans.get(shape{graph: graphLU, mt: mt}, d)
	if err != nil {
		t.Fatal(err)
	}
	sleepy := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
		time.Sleep(300 * time.Microsecond)
		return LUKernel(task, out, in)
	}
	received := func(rep *Report) (n int) {
		for _, r := range rep.ReceivedTilesPerNode {
			n += r
		}
		return n
	}
	baseRec := &trace.Recorder{}
	want, base, err := runPlanDense(pl, mt, b, gen, sleepy, Options{Recorder: baseRec})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{}, {ArrivalTimeout: time.Minute}} {
		net := &lateCopy{after: 20 * time.Millisecond}
		cl := cluster.NewWithOptions(d.Nodes(), cluster.Options{Net: net})
		rec := &trace.Recorder{}
		opt.Cluster, opt.Recorder = cl, rec
		got, rep, err := runPlanDense(pl, mt, b, gen, sleepy, opt)
		net.late.Wait()
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		identicalLU(t, "late duplicates", want, got, mt)
		if g, w := received(rep), received(base); g != w {
			t.Errorf("ArrivalTimeout %v: %d versions taken in under late duplicates, %d on a faithful network", opt.ArrivalTimeout, g, w)
		}
		if g, w := len(rec.Messages), len(baseRec.Messages); g != w {
			t.Errorf("ArrivalTimeout %v: %d message rows under late duplicates, %d on a faithful network", opt.ArrivalTimeout, g, w)
		}
		if n := cl.PoolOutstanding(); n != 0 {
			t.Errorf("ArrivalTimeout %v: %d payloads still in flight", opt.ArrivalTimeout, n)
		}
	}
}
