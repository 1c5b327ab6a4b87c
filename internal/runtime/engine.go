// Package runtime implements the task-based distributed execution engine —
// the role StarPU plays under Chameleon in the paper. The application only
// supplies a task graph (package dag) and a tile→node map (package dist); the
// engine then applies the owner-computes rule, tracks dependencies, infers
// all inter-node communications, and executes the real numeric kernels on
// every virtual node concurrently.
//
// Each node runs an event loop: local task completions release local
// successors; completions whose output some remote node consumes push that
// tile to each distinct consumer node as one point-to-point message; tile
// arrivals release the tasks waiting on them. Mailboxes are unbounded and the
// graph is acyclic, so execution is deadlock-free.
//
// # Scheduling
//
// Ready tasks dispatch through the critical-path priority heap of package
// sched — the same policy and heap the discrete-event simulator uses — so
// panel kernels (GETRF/POTRF) and triangular solves of low iterations never
// starve behind freshly released trailing updates, and real makespans track
// what the simulator predicts. Report.Sched exposes per-node scheduler
// observability: stall time (a free worker with nothing ready — waiting on
// communication or predecessors), the ready-queue high-water mark, and
// dispatch counts by kernel kind.
//
// # Versioned tile protocol
//
// Every published tile travels under a cluster.Tag carrying its write epoch
// (dag.OutputVersions): version 0 is the tile's first write, and each later
// in-place update increments it. A tile that remote nodes consume at several
// versions — legal in general task graphs, even though the right-looking
// factorizations only ever ship final versions — is simply sent once per
// (version, consumer node) pair, and receivers key their copies by the full
// versioned tag. Run compiles the (graph, distribution) pair into a
// plan.Plan first — one graph walk, shared read-only by every engine — and
// compilation returns a descriptive error for anything the protocol cannot
// serve: unserialized writers of one tile, remote reads of initial tile
// contents, or local reads of an intermediate version that race the next
// in-place update. RunPlan executes a plan compiled earlier.
//
// # Tile lifetime
//
// Received tiles are reference-counted by their number of local consumer
// tasks and released as soon as the last consumer's kernel has run, so a
// node's working set is bounded by what is genuinely in flight rather than
// growing with the whole run's traffic (the block-lifetime discipline of
// DBCSR-style runtimes). Report.PeakTilesPerNode exposes the high-water mark.
//
// Communication allocates once per published tile version, not once per
// destination: a completion broadcasts its output through cluster.SendAll,
// every consumer node shares the same immutable clone, and the buffer
// returns to the cluster's shape-keyed pool (tile.Pool) when the last
// consumer releases it — so steady-state runs recycle a small set of
// message buffers instead of churning one allocation per message.
//
// # Failure propagation
//
// The first kernel error on any node aborts the whole run: the failing node
// stops dispatching, suppresses the failed task's publication (no post-error
// tile reaches a remote consumer), and poisons the cluster so every peer
// blocked on tiles that will never be produced wakes up promptly. Run then
// reports the errors of all failing nodes joined together, with nodes that
// merely aborted on a peer's behalf folded in as context.
//
// # Resilience
//
// With Options.ArrivalTimeout set (or Options.Chaos, which defaults it), the
// engine no longer assumes the network delivers: each awaited remote tile
// version carries a deadline, and a version that misses it is re-requested
// from its owner with a cluster.Request control message under exponential
// backoff. Owners keep a cache of the tile versions they published and
// answer requests from it with cluster.Resend — including after their own
// event loop has finished, so a slow consumer can always heal. A permanently
// dropped delivery therefore costs latency, never a hang, and
// Report.Resilience counts the re-requests, redeliveries served, and
// recoveries per node.
//
// Options.Elastic extends resilience to topology change: a node that dies
// mid-run no longer aborts the factorization — a deterministically chosen
// survivor adopts its unfinished tasks and republishes their outputs under
// the original versioned tags, and lagging owners' work can be replayed
// speculatively at demoted priority (see adopt.go for the full design).
//
// # Tracing
//
// When Options.Recorder is set, the run records wall-clock kernel intervals
// (per node and worker slot) and message departure/arrival times into a
// trace.Recorder, so real executions feed the same Gantt, utilization and
// CSV machinery as the simulator. Injected faults and the recovery actions
// they trigger are recorded alongside as trace.FaultEvents.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
	"anybc/internal/sched"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// Kernel applies one task: out is the task's output tile (updated in place),
// inputs are the tiles listed by Graph.InputTiles in visit order.
type Kernel func(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error

// ErrPeerAborted is the error a node reports when it abandoned its remaining
// tasks because another node poisoned the cluster after a kernel failure.
// Run folds these into the failing nodes' root-cause errors rather than
// repeating one line per bystander rank.
var ErrPeerAborted = errors.New("aborted: a peer node failed")

// ErrUndelivered is the error a node reports when an awaited remote tile
// version stayed undelivered through the full re-request retry budget
// (Options.MaxReRequests): the owner is unreachable or permanently silent.
// Without a retry cap a crashed owner used to produce an endless Request
// storm that only an external watchdog could end; with the cap the node
// fails descriptively instead — or, under Options.Elastic, presumes the
// owner dead and adopts its work rather than failing at all.
var ErrUndelivered = errors.New("tile version undelivered: re-request retry budget exhausted")

// ErrCanceled is the error Run returns when Options.Context was cancelled
// before the run completed: the job's cluster plane was poisoned, every
// engine wound down, and the partial factors were discarded. It wraps
// context.Canceled (and the deadline variant satisfies errors.Is against
// context.DeadlineExceeded through the joined cause).
var ErrCanceled = errors.New("run canceled")

// Options tunes the engine.
type Options struct {
	// Workers is the number of concurrent kernel executors per node. Values
	// above 1 model multi-core nodes; correctness is guaranteed by the task
	// graph for any value, and final factors are bit-identical across worker
	// counts (kernels run whole tasks; the parallel GEMM preserves FP order).
	// Workers <= 0 — including the zero value — is normalized to 1 (see
	// normalize); newEngine assumes normalized options.
	Workers int
	// Recorder, when non-nil, receives every kernel interval and message of
	// the run (wall-clock seconds since the run started) for the
	// Gantt/utilization analyses of package trace.
	Recorder *trace.Recorder
	// Chaos, when non-nil, installs the plan as the cluster's network layer:
	// every delivery (tiles, requests, redeliveries) passes through its
	// seeded fault decisions. A plan drives exactly one run; build a fresh
	// plan from the same chaos.Config to reproduce it.
	Chaos *chaos.Plan
	// ArrivalTimeout arms the re-request protocol: an awaited remote tile
	// version not delivered within this duration is re-requested from its
	// owner, with exponential backoff between retries. Zero disables the
	// protocol unless Chaos is set (then it defaults to 250ms); negative
	// forces it off even under chaos — useful only to demonstrate that a
	// dropped message then hangs the run.
	ArrivalTimeout time.Duration
	// Broadcast selects the transport for published tiles:
	// cluster.BroadcastFlat (default, the paper's point-to-point model) or
	// cluster.BroadcastTree, which relays each broadcast down a binomial
	// tree so the owner's NIC serializes ⌈log₂(k+1)⌉ sends instead of k.
	// Final factors are bit-identical across modes; only the wire routing
	// (the cluster.Hops and cluster.Forwards counters of Report.Stats) changes.
	Broadcast cluster.BroadcastMode
	// Elastic arms ownership migration: a node that crashes mid-run no
	// longer aborts the whole factorization. The dying node announces
	// itself (cluster.NoteDown), a deterministically chosen survivor — the
	// fastest alive node under Speeds, ties to the lowest rank — adopts the
	// dead node's tasks by replaying them from the initial tile generator
	// and the published-version caches of the surviving owners, and
	// republishes the results under the original versioned tags, so
	// downstream consumers cannot tell the migration happened. Elastic
	// implies the re-request protocol; ArrivalTimeout is defaulted when
	// unset. Exactly-once delivery is not required: replayed kernels are
	// deterministic, so duplicate publications drop idempotently and final
	// factors stay bit-identical to a crash-free run.
	Elastic bool
	// Speeds gives the relative node speeds (internal/hetero's model) the
	// elastic adopter rule consults; nil means homogeneous. Length must be
	// the node count when set, and setting it without Elastic is rejected.
	Speeds []float64
	// MaxReRequests caps how many times in a row one awaited tile version is
	// re-requested from an owner that stays silent — no message of any kind
	// from it reaching this node in between (cluster.Comm.Heard) — before
	// the node gives up on that owner: zero means the default (50), negative
	// means unlimited (the pre-cap behavior). An owner that is heard from is
	// merely late and is asked again on a fresh budget. On an exhausted
	// budget a non-elastic node fails with ErrUndelivered naming the owner,
	// tag, and retry count; an elastic node instead presumes the owner dead,
	// gossips cluster.NoteDown, and adopts its work.
	MaxReRequests int
	// LagReRequests, in elastic mode, is the re-request attempt count after
	// which a still-alive but lagging owner's unfinished work becomes
	// eligible for speculative adoption: the waiting node replays the
	// overdue version's producer chain itself, at demoted scheduler
	// priority (sched.Demote), racing the laggard. Whichever copy lands
	// first wins; the other drops as an idempotent duplicate. Zero disables
	// speculation; non-zero without Elastic is rejected.
	LagReRequests int
	// Cluster, when non-nil, runs the job over this existing shared cluster
	// instead of creating a private one: the engines use the job-scoped
	// endpoints of Job (cluster.JobComm), so many concurrent Runs multiplex
	// one substrate — the multi-tenant service's mode. The cluster's node
	// count must equal the distribution's. The run closes only its own job
	// plane when it finishes (or aborts, or is cancelled); the shared
	// cluster and its other tenants stay up. The broadcast mode and network
	// seam are the shared cluster's: a Broadcast naming another mode, or a
	// Chaos plan with delivery faults, is rejected — chaos crash injection
	// (CrashTask) still applies per job. The caller is responsible for
	// cluster.DropJob once it has archived the job's Report.
	Cluster *cluster.Cluster
	// Job is this run's tile-namespace epoch on the shared Cluster: every
	// message travels under it, so concurrent jobs' identically-numbered
	// tiles can never collide. Non-zero without Cluster is rejected.
	Job int32
	// Context, when non-nil, is the run's cancellation seam: once it is
	// done, the run aborts — the job's cluster plane is poisoned exactly as
	// by comm.Abort, every engine winds down promptly, all in-flight pooled
	// payloads drain back to the cluster pool, and Run returns ErrCanceled.
	// On a shared cluster only this job's namespace is poisoned; other
	// tenants are untouched.
	Context context.Context
	// PriorityBand places every task key of this run in a cross-job
	// scheduler priority band (sched.Band): band 0 — the default — is the
	// most urgent, higher bands sort strictly after every lower band while
	// preserving their internal critical-path order. The multi-tenant
	// service maps job priorities to bands so co-scheduled jobs' tasks
	// order consistently wherever they meet one queue. Must lie in
	// [0, sched.MaxBand].
	PriorityBand int
}

// defaultArrivalTimeout arms the re-request protocol for runs that need it
// (Chaos, Elastic) but did not choose a timeout; defaultMaxReRequests is the
// retry budget of one awaited tile version when Options.MaxReRequests is zero.
const (
	defaultArrivalTimeout = 250 * time.Millisecond
	defaultMaxReRequests  = 50
)

// normalize is the single point where Options are defaulted and cross-checked
// for a run under distribution d: every default the engines rely on is applied
// here, and a field that would otherwise be silently ignored — it needs another
// one that is unset, or contradicts the shared cluster — is rejected by name.
func (opt *Options) normalize(d dist.Distribution) error {
	P, cl := d.Nodes(), opt.Cluster
	switch {
	case opt.PriorityBand < 0 || opt.PriorityBand > sched.MaxBand:
		return fmt.Errorf("runtime: priority band %d outside [0, %d]", opt.PriorityBand, sched.MaxBand)
	case !opt.Elastic && (opt.Speeds != nil || opt.LagReRequests != 0):
		return errors.New("runtime: Speeds and LagReRequests steer elastic adoption; set Options.Elastic or leave them unset")
	case opt.Speeds != nil && len(opt.Speeds) != P:
		return fmt.Errorf("runtime: %d speeds for %d nodes", len(opt.Speeds), P)
	case cl == nil && opt.Job != 0:
		return fmt.Errorf("runtime: job %d names a namespace of a shared cluster, but Options.Cluster is nil", opt.Job)
	case cl != nil && cl.Nodes() != P:
		return fmt.Errorf("runtime: distribution %s wants %d nodes but the shared cluster has %d", d.Name(), P, cl.Nodes())
	case cl != nil && opt.Broadcast != cluster.BroadcastFlat && opt.Broadcast != cl.Broadcast():
		return fmt.Errorf("runtime: %s broadcast requested on a shared cluster built for %s broadcast", opt.Broadcast, cl.Broadcast())
	case cl != nil && opt.Chaos != nil && opt.Chaos.Config().DeliveryFaults():
		return errors.New("runtime: a chaos plan with delivery faults needs the network seam, which belongs to the shared cluster; only crash injection (CrashAtTask) applies per job")
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.MaxReRequests == 0 {
		opt.MaxReRequests = defaultMaxReRequests
	}
	if cl != nil {
		// The substrate is the shared cluster's: its broadcast transport and
		// network seam apply to every tenant.
		opt.Broadcast = cl.Broadcast()
	}
	switch {
	case opt.ArrivalTimeout < 0:
		opt.ArrivalTimeout = 0 // forced off, even under chaos
	case opt.ArrivalTimeout == 0 && opt.Chaos != nil:
		opt.ArrivalTimeout = defaultArrivalTimeout // so drops heal instead of hanging
	}
	if opt.Elastic && opt.ArrivalTimeout == 0 {
		// Elastic recovery is built on the re-request protocol (published
		// caches, arrival deadlines, escalation); it cannot be disabled
		// underneath it.
		opt.ArrivalTimeout = defaultArrivalTimeout
	}
	return nil
}

// Report summarizes one distributed execution.
type Report struct {
	// Stats holds the communication counters of the virtual network.
	Stats cluster.Stats
	// TasksPerNode counts the kernels each node executed.
	TasksPerNode []int
	// FlopsPerNode sums the flops each node executed.
	FlopsPerNode []float64
	// OwnedTilesPerNode and ReceivedTilesPerNode describe each node's memory
	// traffic: tiles it owns under the distribution, and remote tile versions
	// delivered to it over the run. Received tiles are released after their
	// last local consumer runs, so their count bounds traffic, not residency.
	OwnedTilesPerNode    []int
	ReceivedTilesPerNode []int
	// PeakTilesPerNode is each node's working-set high-water mark: the
	// maximum number of tiles (owned + received-and-not-yet-released) the
	// node held at any instant. It is at most OwnedTilesPerNode +
	// ReceivedTilesPerNode, and strictly below it whenever tile release
	// reclaimed memory mid-run.
	PeakTilesPerNode []int
	// Sched holds each node's scheduler observability counters.
	Sched []SchedStats
	// MailboxPeakPerNode is each node's mailbox high-water mark: the most
	// messages ever queued undelivered at once. The queues are unbounded, so
	// this is the only visibility into transport backpressure — a peak far
	// above the worker count means senders outpace the node's event loop.
	MailboxPeakPerNode []int
	// Resilience holds each node's fault-healing counters. All zero unless
	// the arrival-timeout re-request protocol was armed (Options.Chaos or
	// Options.ArrivalTimeout).
	Resilience []ResilienceStats
	// Broadcast is the transport mode the run used (flat fan-out or
	// binomial tree); the wire-level consequences are in Stats (cluster.Hops,
	// cluster.Forwards), and ForwardedPerNode is the latter per sender: the
	// relay hops each node sent for other owners' broadcasts. Zero when flat.
	Broadcast        cluster.BroadcastMode
	ForwardedPerNode []int
	// Elapsed is the wall-clock duration of the distributed run.
	Elapsed time.Duration
}

// ResilienceStats describes one node's participation in the arrival-timeout
// re-request protocol over a run.
type ResilienceStats struct {
	// ReRequests counts the cluster.Request control messages this node sent
	// after an awaited tile version missed its arrival deadline (retries
	// under backoff count individually): its row of Stats' Requests counter.
	ReRequests int
	// Redelivered counts the re-requests this node answered from its
	// published-version cache, each a cluster.Resend: its Redeliveries row.
	Redelivered int
	// Recovered counts the awaited tile versions that arrived only after
	// this node re-requested them — deliveries the timeout path healed.
	Recovered int
	// Adopted counts the dead-node tasks this node re-ran as the elastic
	// adopter: the migration that let the run finish despite the crash.
	Adopted int
	// Speculative counts the lagging-node tasks this node re-ran
	// speculatively (Options.LagReRequests) while their owner was still
	// alive.
	Speculative int
	// Died reports that this node crashed mid-run (injected or presumed);
	// its unfinished work was adopted by a survivor.
	Died bool
}

// SchedStats describes one node's scheduling behaviour over a run.
type SchedStats struct {
	// StallSeconds is the node's starvation integral in capacity-seconds:
	// each worker that sits idle with nothing dispatchable contributes its
	// idle wall-clock weighted by 1/Workers, so one idle worker out of four
	// accrues a quarter of what a fully idle node does. Time lost waiting on
	// remote tile arrivals or local predecessor completions rather than on
	// compute; a node whose stall time dominates its kernel time is
	// communication-bound. Idle tails after the node's last task are not
	// counted, matching the single-worker accounting of earlier versions.
	StallSeconds float64
	// WorkerBusySeconds is the wall-clock each worker slot spent inside
	// kernels — the per-worker utilization behind StallSeconds.
	WorkerBusySeconds []float64
	// StealsPerWorker counts, per worker slot, the tasks the slot took from
	// another worker's deque because its own ran dry (intra-node work
	// stealing). Always zero with a single worker.
	StealsPerWorker []int
	// ReadyPeak is the high-water mark of the node's ready queue: how much
	// dispatchable work was queued behind the busy workers at the worst
	// instant. Persistently small peaks mean the node is starved; large
	// peaks mean it is the bottleneck.
	ReadyPeak int
	// DuplicateDrops counts identical re-delivered tile versions that were
	// dropped idempotently instead of crashing the node (see onArrival).
	// Always zero under the current transport, which never re-delivers.
	DuplicateDrops int
	// DispatchedByKind counts dispatched kernels per task-kind name.
	DispatchedByKind map[string]int
}

// Run executes graph g on a fresh virtual cluster with the given tile
// distribution, initial tile generator and kernel. It returns the final tile
// contents via collect: after all nodes finish, collect is called once for
// every tile with its final payload. Run is plan.Compile followed by RunPlan;
// callers that run one (graph, distribution) pair repeatedly compile once and
// call RunPlan.
func Run(g dag.Graph, d dist.Distribution, b int,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options,
	collect func(i, j int, t *tile.Tile)) (*Report, error) {

	pl, err := plan.Compile(g, d)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return RunPlan(pl, b, gen, kern, opt, collect)
}

// RunPlan executes a compiled plan: every engine reads its share of pl and
// allocates only its per-run mutable state, so set-up costs O(P) allocations
// plus the owned tiles gen creates, whatever the task count. pl is not
// modified and may serve any number of concurrent runs.
func RunPlan(pl *plan.Plan, b int,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options,
	collect func(i, j int, t *tile.Tile)) (*Report, error) {

	P := pl.Nodes()
	if err := opt.normalize(pl.Dist()); err != nil {
		return nil, err
	}
	cl, shared := opt.Cluster, opt.Cluster != nil
	if !shared {
		copt := cluster.Options{Broadcast: opt.Broadcast}
		if opt.Chaos != nil {
			copt.Net = opt.Chaos
		}
		cl = cluster.NewWithOptions(P, copt)
	}

	start := time.Now()
	if opt.Chaos != nil && opt.Recorder != nil {
		opt.Chaos.Bind(opt.Recorder, start)
	}
	engines := make([]*engine, P)
	for rank := 0; rank < P; rank++ {
		engines[rank] = newEngine(rank, cl.JobComm(opt.Job, rank), pl, b, gen, kern, opt, start)
	}

	// Cancellation seam: a context that ends before the run does poisons
	// this job's plane — exactly comm.Abort's failure surface, so every
	// engine winds down through the ordinary abort path and, on a shared
	// cluster, no other tenant notices.
	runDone := make(chan struct{})
	var cancelled atomic.Bool
	if opt.Context != nil {
		go func() {
			select {
			case <-opt.Context.Done():
				cancelled.Store(true)
				cl.CloseJob(opt.Job)
			case <-runDone:
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, P)
	for rank := 0; rank < P; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = engines[rank].run()
		}(rank)
	}
	wg.Wait()
	close(runDone)
	if opt.Chaos != nil {
		// Release any reorder holds still parked in the fault plan so their
		// payload shares drain before the pool is abandoned.
		opt.Chaos.Flush()
	}
	if shared {
		cl.CloseJob(opt.Job)
	} else {
		cl.Close()
	}
	elapsed := time.Since(start)

	// Report every node's failure, not just the lowest rank's. Nodes that
	// aborted because a peer poisoned the cluster carry ErrPeerAborted; when
	// a root-cause kernel error exists they are folded into one summary line
	// instead of repeated per rank.
	var nodeErrs []error
	peerAborts := 0
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrPeerAborted) {
			peerAborts++
			continue
		}
		nodeErrs = append(nodeErrs, fmt.Errorf("node %d: %w", rank, err))
	}
	if cancelled.Load() && (len(nodeErrs) > 0 || peerAborts > 0) {
		// The context ended the run: the nodes' ErrPeerAborted noise is the
		// cancellation's own doing, so report the cancellation itself. A run
		// that happened to finish cleanly before the poison landed (no node
		// errors at all) still counts as completed, not cancelled.
		return nil, fmt.Errorf("runtime: %w: %w", ErrCanceled, context.Cause(opt.Context))
	}
	if len(nodeErrs) == 0 && peerAborts > 0 {
		// Should not happen (some node poisoned the cluster), but never
		// swallow an abort silently.
		nodeErrs = append(nodeErrs, ErrPeerAborted)
	}
	if len(nodeErrs) > 0 {
		if peerAborts > 0 {
			nodeErrs = append(nodeErrs, fmt.Errorf("%d node(s) aborted: %w", peerAborts, ErrPeerAborted))
		}
		return nil, fmt.Errorf("runtime: %w", errors.Join(nodeErrs...))
	}

	// The job's ledger is the one count of its traffic: the per-node relay,
	// re-request and redelivery figures below are its per-sender sums, not
	// separate tallies kept by the engines.
	stats := cl.JobStats(opt.Job)
	forwards, requests, redeliveries := stats.BySrc(cluster.Forwards),
		stats.BySrc(cluster.Requests), stats.BySrc(cluster.Redeliveries)
	rep := &Report{
		Stats:                stats,
		TasksPerNode:         make([]int, P),
		FlopsPerNode:         make([]float64, P),
		OwnedTilesPerNode:    make([]int, P),
		ReceivedTilesPerNode: make([]int, P),
		PeakTilesPerNode:     make([]int, P),
		Sched:                make([]SchedStats, P),
		MailboxPeakPerNode:   stats.MailboxPeak,
		Resilience:           make([]ResilienceStats, P),
		Broadcast:            opt.Broadcast,
		ForwardedPerNode:     make([]int, P),
		Elapsed:              elapsed,
	}
	for rank, e := range engines {
		rep.FlopsPerNode[rank] = e.flops
		rep.OwnedTilesPerNode[rank] = e.ownedTiles
		rep.ReceivedTilesPerNode[rank] = e.recvTotal
		rep.PeakTilesPerNode[rank] = e.peakTiles
		// Kernels executed = kernels dispatched: abortLocal takes purged jobs
		// back out, so a node that died mid-run reports what it ran, not
		// what it owned.
		byKind := make(map[string]int, len(e.dispatched))
		for kind, n := range e.dispatched {
			byKind[kind.String()] = n
			rep.TasksPerNode[rank] += n
		}
		busy := make([]float64, len(e.busy))
		for w, ns := range e.busy {
			busy[w] = float64(ns) / 1e9
		}
		rep.Sched[rank] = SchedStats{
			StallSeconds:      float64(e.stallNanos.Load()) / 1e9 / float64(e.workers),
			WorkerBusySeconds: busy,
			StealsPerWorker:   append([]int(nil), e.disp.steals...),
			ReadyPeak:         e.readyPeak,
			DuplicateDrops:    e.dupDrops,
			DispatchedByKind:  byKind,
		}
		rep.Resilience[rank] = ResilienceStats{
			ReRequests:  int(requests[rank]),
			Redelivered: int(redeliveries[rank]),
			Recovered:   e.recovered,
			Adopted:     e.adopted,
			Speculative: e.speculative,
			Died:        e.died,
		}
		rep.ForwardedPerNode[rank] = int(forwards[rank])
	}

	if collect != nil {
		// A tile whose owner crashed lives on in its adopter's replay
		// buffers; any surviving engine's adoption table locates it. A rank
		// merely presumed dead (false positive) finished its own tiles, so
		// the remap applies only to engines that really died.
		adopterOf := func(rank int) int {
			for _, e := range engines {
				if e.adoptedBy != nil && e.adoptedBy[rank] >= 0 {
					return e.adoptedBy[rank]
				}
			}
			return -1
		}
		for rank := range engines {
			owner := rank
			for engines[owner].died {
				a := adopterOf(owner)
				if a < 0 || a == owner {
					break
				}
				owner = a
			}
			lo, hi := pl.Tiles(rank)
			for tl := lo; tl < hi; tl++ {
				i, j := pl.TileCoords(tl)
				final := engines[owner].tileOf(tl)
				if final == nil {
					// Backstop: a dead node's work was never adopted — the
					// run cannot produce complete factors.
					return nil, fmt.Errorf("runtime: tile (%d,%d) lost: owner %d died and no survivor adopted its tasks",
						i, j, rank)
				}
				collect(i, j, final)
			}
		}
	}
	return rep, nil
}

type event struct {
	// Exactly one of completed/msg is meaningful. err carries the kernel
	// failure of the completed task, if any.
	completed int // local task index, or -1
	err       error
	msg       cluster.Message
}

type engine struct {
	rank    int
	comm    *cluster.Comm
	pl      *plan.Plan // shared, read-only
	owner   func(i, j int) int
	gen     func(i, j int) *tile.Tile
	b       int
	kern    Kernel
	workers int
	band    int // cross-job priority band applied to every task key
	rec     *trace.Recorder
	epoch   time.Time

	// This node's share of the plan: tasks [lo, lo+n), tiles from tileLo,
	// slots from slotLo. Every per-run table below is a flat slice indexed by
	// (plan index − range start); local task indices >= n, tile indices and
	// slot indices past the plan's ranges belong to elastic adoption
	// (adopt.go), which appends to the same slices.
	lo, tileLo, slotLo int32
	inLo               int32 // plan.InputBase(lo): where this node's share of inbuf starts
	n                  int
	remaining          []int32
	// tiles holds the owned tiles: the in-place buffers the owner's writer
	// chain updates. recv holds the received remote version of each slot,
	// retained (and its message released back to the cluster pool) until
	// readers[slot] consumers have run; fed marks slots whose plan waiters
	// were released, so a re-delivery never releases them twice. held counts
	// the retained slots.
	tiles   []*tile.Tile
	recv    []cluster.Message
	readers []int32
	fed     []bool
	nslot   int // slots the plan gives this node
	held    int
	inbuf   []*tile.Tile // one flat backing array for every task's kernel-input slice

	// ready is the node's dispatch queue: the shared critical-path priority
	// heap of package sched, keyed by the plan's per-task keys.
	ready sched.Heap

	flops      float64
	ownedTiles int
	recvTotal  int
	peakTiles  int

	// disp fans dispatched jobs out to the worker goroutines through
	// per-worker deques with stealing; busy accumulates per-slot kernel
	// nanoseconds (each slot writes only its own entry, read after the
	// workers join).
	disp *dispatcher
	busy []int64

	// Scheduler observability (Report.Sched). stallNanos accumulates the
	// workers' starved wall-clock (atomically — every worker adds its own
	// wait spans); the report divides by the worker count to get the
	// idle-weighted StallSeconds.
	stallNanos atomic.Int64
	readyPeak  int
	dupDrops   int
	dispatched map[dag.Kind]int

	// Resilience (armed when arrival > 0): published caches the tile
	// versions this node broadcast, so re-requests can be answered even
	// after the publishing task's buffer was updated in place — or after
	// this node's event loop finished (the late request server reads it,
	// hence the mutex). seen marks tags that already arrived once, so
	// duplicates landing after the last-reader release still drop
	// idempotently. pending carries the re-request deadline per awaited tag.
	chaos     *chaos.Plan
	arrival   time.Duration
	resilient bool
	pubMu     sync.Mutex
	published map[cluster.Tag]*tile.Tile
	seen      map[cluster.Tag]bool
	pending   map[cluster.Tag]*pendingWait
	// relayed marks tree-broadcast tags whose Forward obligation this node
	// has honored; it exists only once a message carrying a Forward list
	// arrived, i.e. under tree broadcast. It is deliberately separate from
	// seen: when an interior relay hop dropped the original copy and a
	// Resend heal (no Forward list) landed first, the tag is seen, but the
	// late original is a payload duplicate that still carries the subtree
	// and must be relayed exactly once — keying the relay dedup on seen used
	// to swallow it and strand the subtree behind its members' own
	// re-request timeouts.
	relayed map[cluster.Tag]bool

	// Elastic recovery (armed by Options.Elastic): dead tracks crashed and
	// presumed-dead peers, adoptedBy the survivor that re-runs each dead
	// node's tasks (the deterministic hetero.Fastest rule, so every node
	// agrees without coordination), peerDone the completion barrier that
	// keeps every node's event loop serving re-requests and adoptions until
	// the whole cluster has finished. total is the node's current completion
	// target (owned tasks plus adoptions); completed and the x-tables back
	// the adoption state machine in adopt.go — the x-tables exist only once
	// this node adopted something. maxReq/lagReq are the retry budgets of
	// Options.
	elastic     bool
	speeds      []float64
	maxReq      int
	lagReq      int
	dead        []bool
	adoptedBy   []int
	peerDone    []bool
	doneSent    bool
	died        bool
	total       int
	completed   []bool          // per local task: it has finished here
	xtask       []int32         // plan task of adopted local task n+k
	xkey        []int64         // its scheduler key (demoted when speculative)
	xins        [][]int32       // its input references, in local tile/slot indices
	xidx        map[int32]int   // plan task -> adopted local task
	xtile       map[int32]int32 // adopted plan tile -> local tile
	xslot       map[int32]int32 // producer plan task -> local slot created by adoption
	xwait       map[int32][]int // local slot -> adopted tasks (and late registrations) it releases
	dstScratch  []int           // live destinations of one completion
	adopted     int             // Resilience.Adopted
	speculative int             // Resilience.Speculative
	recovered   int             // Resilience.Recovered
}

// pendingWait is the re-request state of one awaited remote tile version.
type pendingWait struct {
	deadline   time.Time
	backoff    time.Duration
	attempts   int
	silent     int  // requests in a row the target stayed silent through: what the budget caps
	heardAt    int  // Comm.Heard of the target when the tag was last found overdue
	speculated bool // an adoption already races this tag; never escalate it
}

// newEngine allocates rank's per-run mutable state, sized from its share of
// the plan; opt must be normalized. Nothing here walks the graph, and the
// resilience and elastic tables exist only when their layer is armed.
func newEngine(rank int, comm *cluster.Comm, pl *plan.Plan,
	b int, gen func(i, j int) *tile.Tile, kern Kernel, opt Options, epoch time.Time) *engine {

	lo, hi := pl.Tasks(rank)
	tileLo, tileHi := pl.Tiles(rank)
	slotLo, slotHi := pl.Slots(rank)
	e := &engine{
		rank:       rank,
		comm:       comm,
		pl:         pl,
		owner:      pl.Dist().Owner,
		gen:        gen,
		b:          b,
		kern:       kern,
		workers:    opt.Workers,
		band:       opt.PriorityBand,
		rec:        opt.Recorder,
		epoch:      epoch,
		lo:         lo,
		tileLo:     tileLo,
		slotLo:     slotLo,
		inLo:       pl.InputBase(lo),
		n:          int(hi - lo),
		remaining:  make([]int32, hi-lo),
		tiles:      make([]*tile.Tile, tileHi-tileLo),
		recv:       make([]cluster.Message, slotHi-slotLo),
		readers:    append([]int32(nil), pl.SlotReaders(slotLo, slotHi)...),
		fed:        make([]bool, slotHi-slotLo),
		nslot:      int(slotHi - slotLo),
		inbuf:      make([]*tile.Tile, pl.InputBase(hi)-pl.InputBase(lo)),
		dispatched: make(map[dag.Kind]int),
		ready:      sched.NewHeap(sched.CriticalPath.Tie()),
		disp:       newDispatcher(opt.Workers),
		busy:       make([]int64, opt.Workers),
		chaos:      opt.Chaos,
		arrival:    opt.ArrivalTimeout,
		elastic:    opt.Elastic,
		speeds:     opt.Speeds,
		maxReq:     opt.MaxReRequests,
		lagReq:     opt.LagReRequests,
	}
	for t := lo; t < hi; t++ {
		e.remaining[t-lo] = pl.NumDeps(t)
	}
	for tl := tileLo; tl < tileHi; tl++ {
		e.tiles[tl-tileLo] = gen(pl.TileCoords(tl))
	}
	e.ownedTiles = len(e.tiles)
	e.peakTiles = e.ownedTiles
	if e.arrival > 0 {
		e.resilient = true
		e.published = make(map[cluster.Tag]*tile.Tile)
		e.seen = make(map[cluster.Tag]bool)
		e.pending = make(map[cluster.Tag]*pendingWait)
	}
	if e.elastic {
		P := comm.Size()
		e.dead = make([]bool, P)
		e.adoptedBy = make([]int, P)
		for n := range e.adoptedBy {
			e.adoptedBy[n] = -1
		}
		e.peerDone = make([]bool, P)
		e.completed = make([]bool, e.n)
		e.dstScratch = make([]int, 0, P)
	}
	return e
}

// task returns the plan task behind local task idx: one of this node's own,
// or one it adopted.
func (e *engine) task(idx int) int32 {
	if idx < e.n {
		return e.lo + int32(idx)
	}
	return e.xtask[idx-e.n]
}

// local returns the local index of plan task t, if it runs here: natively,
// or because this node adopted it.
func (e *engine) local(t int32) (int, bool) {
	if t >= e.lo && t < e.lo+int32(e.n) {
		return int(t - e.lo), true
	}
	idx, ok := e.xidx[t]
	return idx, ok
}

// key returns the dispatch key of local task idx in this run's priority band.
func (e *engine) key(idx int) int64 {
	if idx < e.n {
		return sched.Band(e.pl.Key(e.lo+int32(idx)), e.band)
	}
	return e.xkey[idx-e.n]
}

// tagOf returns the versioned wire tag of plan task t's output.
func (e *engine) tagOf(t int32) cluster.Tag {
	i, j := e.pl.TileCoords(e.pl.Out(t))
	return cluster.Tag{I: int32(i), J: int32(j), V: e.pl.Version(t)}
}

// tileOf returns this node's buffer of a plan tile — one it owns, or a
// replay buffer of a tile it adopted — or nil when it holds none.
func (e *engine) tileOf(tl int32) *tile.Tile {
	if k := tl - e.tileLo; k >= 0 && int(k) < e.ownedTiles {
		return e.tiles[k]
	}
	if k, ok := e.xtile[tl]; ok {
		return e.tiles[k]
	}
	return nil
}

// slotOf returns the local slot holding plan task t's output version on this
// node, or -1 when nothing here awaits it.
func (e *engine) slotOf(t int32) int32 {
	if s := e.pl.SlotAt(t, e.rank); s >= 0 {
		return s - e.slotLo
	}
	if s, ok := e.xslot[t]; ok {
		return s
	}
	return -1
}

// inputs returns the input references of local task idx and the bases its
// tile (ref >= 0) and slot (^ref) indices are relative to: plan indices for
// a native task, local ones for an adopted task.
func (e *engine) inputs(idx int) (refs []int32, tileBase, slotBase int32) {
	if idx < e.n {
		return e.pl.Inputs(e.lo + int32(idx)), e.tileLo, e.slotLo
	}
	return e.xins[idx-e.n], 0, 0
}

// feed releases everything waiting on local slot s: once, the tasks the plan
// lists for it, and whatever adoption registered since.
func (e *engine) feed(s int32) {
	if !e.fed[s] {
		e.fed[s] = true
		if int(s) < e.nslot {
			for _, t := range e.pl.Waiters(e.slotLo + s) {
				e.release(int(t - e.lo))
			}
		}
	}
	if w := e.xwait[s]; len(w) > 0 {
		delete(e.xwait, s)
		for _, idx := range w {
			e.release(idx)
		}
	}
}

// retain stores msg as local slot s's received copy.
func (e *engine) retain(s int32, msg cluster.Message) {
	e.recv[s] = msg
	e.held++
	if held := e.ownedTiles + e.held; held > e.peakTiles {
		e.peakTiles = held
	}
}

// drop releases local slot s's received copy, if one is retained.
func (e *engine) drop(s int32) {
	if e.recv[s].Payload != nil {
		e.recv[s].Release()
		e.recv[s] = cluster.Message{}
		e.held--
	}
}

// run executes this node's share of the graph and returns when every owned
// task has completed, or promptly once the run aborts: a local kernel error
// poisons the cluster and is returned; a poisoned cluster observed while work
// is still outstanding means a peer failed, and ErrPeerAborted is returned.
//
// In elastic mode the exit condition is a barrier, not a local count: a node
// that finishes its share broadcasts cluster.NoteDone and keeps its event
// loop alive — answering re-requests, relaying tree hops, and above all
// remaining adoptable work-capacity — until every peer is done or dead. The
// barrier is what guarantees a death always finds its deterministic adopter
// still inside an event loop, never already exited.
func (e *engine) run() error {
	e.total = e.n
	if e.total == 0 && !e.elastic {
		return nil
	}

	events := make(chan event, e.workers+4)
	// Receiver: forwards network messages into the event loop; recvDone
	// closing signals the cluster itself has been closed (shutdown or abort).
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			msg, ok := e.comm.Recv()
			if !ok {
				return
			}
			events <- event{completed: -1, msg: msg}
		}
	}()

	// Workers pull jobs from the stealing dispatcher: own deque front first,
	// the coldest entry of the fullest peer deque when starved. A blocked
	// take that eventually yields a job is a starvation span — charged to
	// the node's idle-weighted stall account; the final wait that ends in
	// shutdown is not (the node is done, not starved).
	var workerWG sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		workerWG.Add(1)
		go func(slot int) {
			defer workerWG.Done()
			for {
				jb, ok, waitStart, waitEnd := e.disp.take(slot)
				if !ok {
					return
				}
				if !waitStart.IsZero() {
					e.noteStall(waitStart, waitEnd)
				}
				start := time.Now()
				// The task rides in the job: elastic adoption grows the
				// engine's task tables from the event loop while workers run.
				err := e.kern(jb.task, jb.out, jb.inputs)
				end := time.Now()
				e.busy[slot] += end.Sub(start).Nanoseconds()
				if e.rec != nil {
					e.rec.RecordTask(e.rank, slot, jb.task,
						start.Sub(e.epoch).Seconds(), end.Sub(e.epoch).Seconds())
				}
				events <- event{completed: jb.idx, err: err}
			}
		}(w)
	}

	for idx, rem := range e.remaining {
		if rem == 0 {
			e.pushReady(idx)
		}
	}

	// Arm the re-request protocol: every awaited remote tile version gets an
	// arrival deadline, and a ticker at half the timeout drives the overdue
	// sweep. The channel stays nil — and the select case dead — when the
	// protocol is off or nothing is awaited; elastic nodes always arm it,
	// because adoption registers new awaited tags mid-run even on a node that
	// started with none. The sweep period is floored at 1ms: a sub-2ns
	// ArrivalTimeout used to truncate to a zero ticker period and panic.
	var tick <-chan time.Time
	if e.resilient && (e.nslot > 0 || e.elastic) {
		deadline := time.Now().Add(e.arrival)
		for s := 0; s < e.nslot; s++ {
			tag := e.tagOf(e.pl.SlotProducer(e.slotLo + int32(s)))
			e.pending[tag] = &pendingWait{deadline: deadline, backoff: e.arrival}
		}
		period := e.arrival / 2
		if period < time.Millisecond {
			period = time.Millisecond
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		tick = ticker.C
	}

	// Injected crash: the chaos plan may name the owned-task index just
	// before which this node dies — it stops dispatching and poisons the
	// cluster, exactly the failure surface of a real kernel error.
	crashAt := -1
	if e.chaos != nil {
		crashAt = e.chaos.CrashTask(e.rank)
	}
	dispatchCount := 0

	// feed moves ready tasks from the priority heap to the worker deques,
	// resolving each task's input tiles here in the event loop (the recv and
	// tiles tables are event-loop-owned). feedCap bounds dispatched-but-
	// unfinished work: with several workers each may hold one running task
	// plus one prefetched deque entry, giving idle workers something to
	// steal; a single worker gets no prefetch, so its dispatch order is
	// exactly the heap's priority order (the sim-vs-real crosscheck pins it).
	feedCap := 2 * e.workers
	if e.workers == 1 {
		feedCap = 1
	}
	dispatch := func(idx int) {
		pt := e.task(idx)
		t := e.pl.Task(pt)
		e.dispatched[t.Kind]++
		out := e.tileOf(e.pl.Out(pt))
		if out == nil {
			panic(fmt.Sprintf("runtime: node %d: output tile of %v missing", e.rank, t))
		}
		refs, tileBase, slotBase := e.inputs(idx)
		var inputs []*tile.Tile
		if idx < e.n {
			at := int(e.pl.InputBase(pt) - e.inLo)
			inputs = e.inbuf[at : at+len(refs) : at+len(refs)]
		} else {
			inputs = make([]*tile.Tile, len(refs))
		}
		for k, ref := range refs {
			var in *tile.Tile
			if ref < 0 {
				in = e.recv[^ref-slotBase].Payload
			} else {
				in = e.tiles[ref-tileBase]
			}
			if in == nil {
				panic(fmt.Sprintf("runtime: node %d: input %d of %v missing", e.rank, k, t))
			}
			inputs[k] = in
		}
		e.disp.push(job{idx: idx, task: t, out: out, inputs: inputs})
	}

	var abortErr error
	aborted := false
	recvClosed := recvDone // nilled after firing so the select stops spinning
	done, inflight := 0, 0
	// abortLocal handles this node's own failures (kernel error, protocol
	// violation, injected crash): dispatching stops and queued-but-unstarted
	// jobs are purged from the deques — they will never run, so the in-flight
	// and per-kind dispatch counts drop with them — and only already-running
	// kernels are awaited. A *peer* abort deliberately does not purge: jobs already
	// dealt to the deques were dispatched before the poison arrived and still
	// run (completions suppressed), so a node that was about to fail on its
	// own reports its kernel error instead of the bystander sentinel
	// regardless of how goroutine scheduling interleaved push and abort.
	abortLocal := func(err error) {
		aborted = true
		abortErr = err
		for _, jb := range e.disp.purge() {
			inflight--
			e.dispatched[jb.task.Kind]--
		}
	}
	for {
		if !aborted {
			for !e.ready.Empty() && inflight < feedCap {
				if crashAt >= 0 && dispatchCount == crashAt {
					e.chaos.RecordCrash(e.rank, dispatchCount)
					if e.elastic {
						// Elastic death: announce it out-of-band and fall
						// silent — no more dispatch, no publications, no
						// request answering. The cluster is NOT poisoned;
						// the survivors' adopter replays our tasks and the
						// run completes without us. Crashing is not an
						// error under elastic recovery.
						e.died = true
						e.comm.Notify(cluster.NoteDown, e.rank)
						e.fault("crash", e.rank, e.rank, fmt.Sprintf("task %d", dispatchCount))
						abortLocal(nil)
					} else {
						e.comm.Abort()
						abortLocal(fmt.Errorf("node %d died before its owned task %d: %w",
							e.rank, dispatchCount, chaos.ErrInjectedCrash))
					}
					break
				}
				dispatch(int(e.ready.Pop()))
				dispatchCount++
				inflight++
			}
			if !aborted && done == e.total {
				if !e.elastic {
					break
				}
				// Elastic completion barrier: announce we are done (once —
				// adoption may raise e.total again, and a stale NoteDone is
				// harmless because every node stays in its loop until the
				// whole cluster settles) and exit only when every peer is
				// done or dead.
				if !e.doneSent {
					e.doneSent = true
					e.peerDone[e.rank] = true
					e.comm.Notify(cluster.NoteDone, e.rank)
				}
				if e.peersSettled() {
					break
				}
			}
		}
		if aborted && inflight == 0 {
			// Abort: nothing running anymore, nothing will be dispatched.
			break
		}
		select {
		case ev := <-events:
			switch {
			case ev.completed < 0:
				if aborted {
					ev.msg.Release()
				} else if err := e.onArrival(ev.msg); err != nil {
					// Protocol violation (conflicting duplicate delivery):
					// fail this node descriptively instead of panicking, and
					// poison the cluster like any other node failure.
					e.comm.Abort()
					abortLocal(err)
				}
			default:
				inflight--
				done++
				if ev.err != nil {
					if !aborted {
						// First local kernel failure: record the root cause,
						// stop dispatching, and poison the cluster so peers
						// blocked on tiles we will never produce wake up. The
						// failed task's output is never published. A kernel
						// error is a correctness failure, not a crash —
						// elastic recovery never masks it.
						e.comm.Abort()
						abortLocal(fmt.Errorf("%v: %w", e.pl.Task(e.task(ev.completed)), ev.err))
					} else if errors.Is(abortErr, ErrPeerAborted) {
						// This node failed too, it just noticed the peer's
						// poison first: its own kernel error is the better
						// root cause than the bystander sentinel.
						abortErr = fmt.Errorf("%v: %w", e.pl.Task(e.task(ev.completed)), ev.err)
					}
				} else if !aborted {
					e.onComplete(ev.completed)
				}
				// Completions after the abort are suppressed entirely: no
				// successor release, no sends.
			}
		case <-recvClosed:
			recvClosed = nil
			if !aborted {
				// The cluster was poisoned while we still have unfinished
				// work: a peer failed. No purge — already-dispatched jobs
				// drain through the workers (see abortLocal), and their
				// completions bring inflight to zero.
				aborted = true
				abortErr = ErrPeerAborted
			}
		case <-tick:
			if !aborted {
				if err := e.onTick(); err != nil {
					// Retry budget exhausted on a non-elastic run: fail
					// descriptively and poison the cluster, exactly like a
					// kernel error.
					e.comm.Abort()
					abortLocal(err)
				}
			}
		}
	}
	e.disp.close()
	workerWG.Wait()
	// An aborted (or cancelled, or crashed) run leaves received tiles
	// retained in recv whose consumer tasks will never execute; the workers
	// are joined, so release them here or their pooled buffers leak — on a
	// shared cluster, permanently. A completed run's last-reader release
	// already emptied every slot, making this a no-op.
	for s := range e.recv {
		e.drop(int32(s))
	}
	// Absorb (and release) any late messages until the cluster is closed, so
	// remote senders and our receiver goroutine can always make progress. In
	// resilient mode this absorber doubles as the late request server: a
	// consumer slower than us may still re-request tile versions we
	// published, and must get them even though our event loop is gone. The
	// server deliberately touches only the published cache (under pubMu) and
	// the cluster — never the recorder or plain engine fields, which the
	// report reads concurrently.
	// crashed covers every abort, including an elastic death: a dead node
	// answers no requests and relays nothing — that silence is exactly what
	// the survivors' escalation and adoption must overcome.
	crashed := aborted
	go func() {
		for ev := range events {
			if ev.msg.Note != cluster.NoteNone {
				continue
			}
			if e.resilient && !crashed && ev.msg.Req {
				e.answerRequest(ev.msg, false)
				continue
			}
			// A tree-broadcast hop that lands after our event loop finished
			// still carries its subtree's deliveries: relay it (the relayed
			// map is now touched only by this goroutine) before releasing our
			// own share, so a fast consumer never strands the slow subtree
			// behind it.
			if !crashed {
				e.relay(ev.msg)
			}
			ev.msg.Release()
		}
	}()
	go func() {
		<-recvDone
		close(events)
	}()
	return abortErr
}

// onTick sweeps the awaited remote tile versions and re-requests every one
// past its deadline from its owner (or, once the owner is dead, from its
// adopter), doubling the deadline each retry (capped) so a genuinely slow
// producer is not hammered. The sweep is also the failure detector of last
// resort: a tag whose retry budget (Options.MaxReRequests) runs dry — that
// many requests in a row with its owner never heard from — fails
// the node with ErrUndelivered on a plain resilient run, or — under elastic
// recovery — presumes the silent owner dead, gossips cluster.NoteDown, and
// restarts the budget against the adopter. Before that point, a lagging but
// answering owner's chain can be adopted speculatively (Options.LagReRequests).
func (e *engine) onTick() error {
	now := time.Now()
	for tag, p := range e.pending {
		if now.Before(p.deadline) {
			continue
		}
		origOwner := e.owner(int(tag.I), int(tag.J))
		target := e.liveOwner(origOwner)
		if target == e.rank || target < 0 {
			// We are the adopter ourselves (the replay will fulfill this tag
			// locally), or the dead owner has no adopter to ask: requesting
			// is pointless, just keep the deadline moving.
			p.deadline = now.Add(p.backoff)
			continue
		}
		if heard := e.comm.Heard(target); heard != p.heardAt {
			// Something from the target has reached this node since this
			// version was last found overdue: the target is alive and
			// reachable, so the version is late, not lost for good — every
			// awaited version's clock starts at run start, long before most
			// producers run. Keep asking (a dropped delivery heals no other
			// way), but only requests into unbroken silence count against
			// the budget.
			p.silent, p.heardAt = 0, heard
		}
		if p.silent >= e.maxReq && e.maxReq > 0 && !p.speculated {
			if !e.elastic {
				return fmt.Errorf("node %d: tile (%d,%d) v%d from node %d undelivered after %d re-requests: %w",
					e.rank, tag.I, tag.J, tag.V, target, p.silent, ErrUndelivered)
			}
			// Elastic escalation: the target has ignored the whole budget —
			// presume it dead, tell everyone, and start a fresh budget
			// against whoever adopts it. markDead resets the attempts of
			// every tag the dead node owed us.
			e.markDead(target, true)
			if target = e.liveOwner(origOwner); target == e.rank || target < 0 {
				continue
			}
		}
		if e.elastic && e.lagReq > 0 && p.attempts >= e.lagReq && !p.speculated && !e.dead[origOwner] {
			// The owner is alive but lagging: speculatively replay the
			// overdue version's producer chain at demoted priority, racing
			// the laggard. Whichever copy lands first wins; the loser drops
			// as an idempotent duplicate.
			e.adoptChain(tag)
			p.speculated = true
			if _, still := e.pending[tag]; !still {
				// The chain replay fulfilled the tag synchronously (every
				// input was already at hand); nothing left to re-request.
				continue
			}
		}
		e.comm.Request(target, tag)
		p.attempts++
		p.silent++
		p.backoff *= 2
		if maxB := 8 * e.arrival; p.backoff > maxB {
			p.backoff = maxB
		}
		p.deadline = now.Add(p.backoff)
		e.fault("re-request", e.rank, target, tag.String())
	}
	return nil
}

// answerRequest serves one version re-request from the published cache. A
// request for a version not yet published is dropped: the normal broadcast
// at completion covers it, and the requester's backoff retries if that
// broadcast is the delivery that gets lost. live distinguishes the event
// loop (which may record the redelivery) from the post-loop server (which
// must not touch the recorder).
func (e *engine) answerRequest(msg cluster.Message, live bool) {
	e.pubMu.Lock()
	cached := e.published[msg.Tag]
	e.pubMu.Unlock()
	if cached == nil {
		return
	}
	e.comm.Resend(msg.From, msg.Tag, cached)
	if live {
		e.fault("redeliver", e.rank, msg.From, msg.Tag.String())
	}
}

// fault puts one injected fault or recovery action on the run's trace, when
// one is being recorded. Event-loop only: the post-loop absorber must not
// touch the recorder.
func (e *engine) fault(kind string, from, to int, what string) {
	if e.rec != nil {
		e.rec.RecordFault(kind, from, to, what, time.Since(e.epoch).Seconds())
	}
}

// noteStall charges one worker's starved interval to the node's stall
// account: StallSeconds integrates idle-worker-time weighted by 1/workers,
// so a node with one of four workers starved accrues a quarter of what a
// fully idle node does (the pre-weighting accounting charged full wall-clock
// whenever any worker was free). Called from worker goroutines; the nanos
// accumulate atomically and the recorder locks internally.
func (e *engine) noteStall(start, end time.Time) {
	e.stallNanos.Add(end.Sub(start).Nanoseconds())
	if e.rec != nil {
		e.rec.RecordStall(e.rank,
			start.Sub(e.epoch).Seconds(), end.Sub(e.epoch).Seconds(),
			1/float64(e.workers))
	}
}

// relay honors msg's tree-broadcast Forward obligation, exactly once per tag
// (see the relayed field for why the dedup is not the payload dedup).
func (e *engine) relay(msg cluster.Message) {
	if len(msg.Forward) > 0 && !e.relayed[msg.Tag] {
		if e.relayed == nil {
			e.relayed = make(map[cluster.Tag]bool)
		}
		e.relayed[msg.Tag] = true
		e.comm.Forward(msg)
	}
}

// release resolves one dependency of owned task idx — a local predecessor's
// completion or an awaited version's arrival — and queues the task once none
// remain.
func (e *engine) release(idx int) {
	if e.remaining[idx]--; e.remaining[idx] == 0 {
		e.pushReady(idx)
	}
}

// pushReady queues owned task idx for dispatch under its critical-path key
// and tracks the ready-queue high-water mark.
func (e *engine) pushReady(idx int) {
	e.ready.Push(e.key(idx), int32(idx))
	if n := e.ready.Len(); n > e.readyPeak {
		e.readyPeak = n
	}
}

// onComplete publishes a finished task: releases local successors, sends the
// output tile version once to every distinct remote consumer node — the
// plan's static destination list, passed to the cluster as is on a run
// without elastic recovery — and releases received tiles whose last local
// consumer just ran.
//
// Under elastic recovery the completion may belong to an adopted task, and
// the node may host both halves of a dependency edge that used to cross the
// wire. Local successors split by side: a successor on the same side as the
// producer (both native, or both adopted from the same node — the plan's
// same-node successor list, reading the producer's in-place buffer exactly
// as on the original owner) is released directly; a successor on the other
// side registered a waiter on the version's slot at adoption time and is fed
// through fulfillLocal, which stashes a snapshot exactly as if the tag had
// arrived over the network — one release path per edge, so a racing stale
// arrival can never double-decrement a dependency count.
func (e *engine) onComplete(idx int) {
	pl, pt := e.pl, e.task(idx)
	e.flops += pl.Graph().Flops(pl.Task(pt), e.b)
	out := e.tileOf(pl.Out(pt))
	netTag := e.tagOf(pt)

	dsts := pl.Dsts(pt)
	hadRemote := len(dsts) > 0
	if idx < e.n {
		for _, s := range pl.Succs(pt) {
			e.release(int(s - e.lo))
		}
	} else {
		if sched.Demoted(e.key(idx)) {
			e.speculative++
		} else {
			e.adopted++
		}
		for _, s := range pl.Succs(pt) {
			if li, ok := e.xidx[s]; ok {
				e.release(li)
			}
		}
		// An adopted task's remote consumers are every successor this node
		// does not natively own: those on its original node included.
		hadRemote = len(pl.Succs(pt)) > 0 || len(dsts) > 1 || (len(dsts) == 1 && dsts[0] != e.rank)
	}
	if e.elastic {
		e.completed[idx] = true
		dsts = e.liveDsts(pt, idx >= e.n)
	}
	if len(dsts) > 0 {
		if len(dsts) == 1 && pl.Reduce(pt) {
			// Reduction partial: the accumulator's only remote consumer is the
			// combine on its binomial parent's node, a point-to-point shipment
			// counted as reduction traffic rather than a broadcast.
			e.comm.SendReduce(dsts[0], netTag, out)
		} else {
			// One broadcast, one clone: every consumer node shares the same
			// immutable payload (see cluster.SendAll).
			e.comm.SendAll(dsts, netTag, out)
		}
	}
	if e.published != nil && hadRemote {
		// Snapshot the published version for the re-request protocol: out is
		// updated in place by this tile's later writers, so the broadcast
		// content must be preserved separately. Snapshotted whenever any
		// remote consumer exists — even one whose death (or speculative
		// skip) emptied today's destination list — because that consumer's
		// adopter may still re-request the version.
		e.pubMu.Lock()
		e.published[netTag] = out.Clone()
		e.pubMu.Unlock()
	}
	if e.elastic {
		e.fulfillLocal(pt, netTag, out)
	}

	// Last-reader release: drop received copies this task consumed once no
	// other local task still needs them, returning their buffers to the
	// cluster pool.
	refs, _, slotBase := e.inputs(idx)
	for _, ref := range refs {
		if ref >= 0 {
			continue
		}
		s := ^ref - slotBase
		if e.readers[s]--; e.readers[s] <= 0 {
			e.drop(s)
		}
	}
}

// onArrival stores a received tile version and releases the tasks waiting on
// it. Versions no local task consumes (pure ordering dependencies) are
// dropped immediately; everything else is retained until its last consumer
// runs.
//
// The transport sends each tile version at most once per destination, but a
// re-delivery must not crash the node: an arrival whose tag is already
// retained is dropped idempotently when its payload matches the retained copy
// (counted in Report.Sched.DuplicateDrops), and reported as a descriptive
// error — surfaced through Run's joined node errors — when the payloads
// genuinely conflict, since then one of the two writes is wrong and the run
// cannot be trusted.
func (e *engine) onArrival(msg cluster.Message) error {
	if msg.Note != cluster.NoteNone {
		e.onNote(msg)
		return nil
	}
	if msg.Req {
		// A consumer's re-request for a version we published (no payload).
		e.answerRequest(msg, true)
		return nil
	}
	// Relay before any payload dedup, so the subtree's arrivals pipeline
	// behind ours instead of behind our kernel work — and because a payload
	// duplicate may still owe its subtree a relay (see relayed).
	e.relay(msg)
	slot := int32(-1)
	if pt := e.pl.Producer(msg.Tag.I, msg.Tag.J, msg.Tag.V); pt >= 0 {
		slot = e.slotOf(pt)
	}
	if slot >= 0 && e.recv[slot].Payload != nil {
		identical := e.recv[slot].Payload.EqualApprox(msg.Payload, 0)
		msg.Release()
		if identical {
			e.dupDrops++
			return nil
		}
		return fmt.Errorf("conflicting duplicate of tile %v from node %d: payload differs from the retained copy", msg.Tag, msg.From)
	}
	if e.seen != nil {
		// Resilient transports may duplicate or redeliver: a tag whose first
		// copy was already consumed and released is long gone from recv, so
		// remember every tag ever arrived and drop the stragglers here —
		// idempotently, like the retained duplicates above.
		if e.seen[msg.Tag] {
			msg.Release()
			e.dupDrops++
			return nil
		}
		e.seen[msg.Tag] = true
	}
	if e.pending != nil {
		if p, ok := e.pending[msg.Tag]; ok {
			if p.attempts > 0 {
				// This version arrived only after we re-requested it: the
				// timeout path healed a lost delivery.
				e.recovered++
				e.fault("recovered", msg.From, e.rank, msg.Tag.String())
			}
			delete(e.pending, msg.Tag)
		}
	}
	e.recvTotal++
	if e.rec != nil {
		e.rec.RecordMessage(msg.From, e.rank,
			msg.SentAt.Sub(e.epoch).Seconds(), time.Since(e.epoch).Seconds(),
			msg.Payload.Bytes())
	}
	if slot >= 0 && e.readers[slot] > 0 {
		e.retain(slot, msg)
	} else {
		msg.Release()
	}
	if slot >= 0 {
		e.feed(slot)
	}
	return nil
}
