// Package runtime implements the task-based distributed execution engine —
// the role StarPU plays under Chameleon in the paper. The application only
// supplies a task graph (package dag) and a tile→node map (package dist); the
// engine then applies the owner-computes rule, tracks dependencies, infers
// all inter-node communications, and executes the real numeric kernels on
// every virtual node concurrently.
//
// # One core
//
// The package is cut along the static/dynamic line of hybrid scheduling
// (Donfack–Grigori–Gropp–Kale): what a run can know before it starts is
// compile-time data in a plan.Plan, and the engine (engine.go) only indexes
// flat slices by it: a node runs its rank's share of the plan, one set of
// per-run tables that newEngine builds. A node is what it is under StarPU, one
// worker per core that also drives communication: Workers worker goroutines
// around one lock that guards the node's state — no loop goroutine, no
// receiver; the node's run call is itself one of the workers. A worker that
// finishes a kernel takes the lock and publishes the task itself: the
// completion releases local successors, and an output some remote node
// consumes goes to each distinct consumer node as one point-to-point message;
// then it pops its next task off the priority queue and computes again. A
// message is taken in by the goroutine that sends it, under the destination's
// lock when it gets that lock without waiting — into the slot that awaits it,
// relaying it down its broadcast tree first — releasing the tasks waiting on
// it and waking a sleeping worker for each. A message that finds the lock
// busy is queued, and whoever
// holds the lock takes the queue in before releasing it (engine.unlock).
// Local and peer aborts and context cancellation wind the node down; RunPlan
// closes the job's plane, takes in what each mailbox still holds, then reads
// the job's ledger and gathers the result. Kernels run outside the lock, a
// node lock is only ever tried, never waited for, under another, mailboxes
// are unbounded and the graph is acyclic, so execution is deadlock-free.
//
// The network is reliable, as MPI's is (see package cluster): every message
// arrives exactly once, in any order. The engine assumes it and re-requests
// nothing; a version that reaches a node twice, or one no slot of the node
// awaits, fails the run with an internal error naming the node and the tag.
// Nothing recovers from a failure: the paper's distributions assume a
// fault-free cluster, and a node whose kernel fails fails its run.
//
// # Scheduling
//
// Ready tasks dispatch through the critical-path priority queue of package
// sched — the same policy and queue the discrete-event simulator uses — and a
// free worker pops it directly, whatever Workers is: nothing is queued ahead
// between the queue and a worker, so panel kernels (GETRF/POTRF) and triangular
// solves of low iterations never start behind trailing updates that were
// merely ready earlier, and real makespans track what the simulator predicts.
// TestSimulatorMatchesRuntime (GOEXPERIMENT=synctest) holds them to it: run in
// virtual time, with kernels that sleep their modelled durations, the
// runtime's makespan matches simulate.Run's within its bands.
// Report.Sched exposes per-node scheduler observability: stall time (a free
// worker with nothing ready — waiting on communication or predecessors), busy
// time per worker and the ready-queue high-water mark. What ran where is the
// trace's to say (see Tracing).
//
// # Versioned tile protocol
//
// Every published tile travels under a cluster.Tag carrying its write epoch
// (plan.Plan.Version): version 0 is the tile's first write, and each later
// in-place update increments it. A tile is sent once its last writer ran, to
// each distinct consumer node once, and receivers key their copies by the
// full versioned tag. A run executes a plan.Plan — one inference of the
// graph's program under the distribution, shared read-only by every engine —
// and compilation returns a descriptive error for anything the protocol
// cannot serve: remote reads of initial tile contents or of any version but a
// tile's last, and local reads of an intermediate version that race the next
// in-place update. The Factor entry points, which build their own graphs,
// take the plan from one process-wide cache (plancache.go): a shape is
// compiled on its first call and reused by every later call whose
// distribution places the plan's tiles alike, up to a fixed budget of kept
// tasks. Run, handed an arbitrary graph, compiles it on every call; RunPlan
// executes a plan compiled earlier.
//
// # Tile lifetime
//
// Received tiles are reference-counted by their number of local consumer
// tasks and released as soon as the last consumer's kernel has run, so a
// node's working set is bounded by what is genuinely in flight rather than
// growing with the whole run's traffic (the block-lifetime discipline of
// DBCSR-style runtimes). Report.PeakTilesPerNode exposes the high-water mark.
//
// Communication copies nothing: a sent version is its tile's last, which the
// owner never touches again, so a completion lends that tile itself to the
// cluster (cluster.Broadcast) and every consumer node reads the owner's
// buffer. The cluster counts the payload as in flight until its last Release;
// on the private cluster RunPlan builds, a payload still lent once the run is
// torn down is an internal error.
//
// Owned tiles are never copied: gen allocates each one, the
// owner's kernels update it in place for the whole run, and it leaves with the
// result — collect is handed the buffer itself, and FactorLU, FactorCholesky
// and the service build the matrix they return out of those buffers (gather,
// factor.go). A call therefore allocates its matrix exactly once, and it
// holds that matrix plus the live heap, never a dead predecessor above
// collectFirstBytes (16 MiB): for such a matrix gather forces one collection
// before the run generates its tiles, so the factors of earlier calls that
// nobody holds are freed and their memory reused, where Go's default pacing
// would let repeated calls peak at two matrices. Below that size the
// collection's fixed cost (0.15–0.6 ms) would be a visible share of a call
// for a few MB saved, so the pacing is left alone.
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
// # Tracing
//
// When Options.Recorder is set, the run records wall-clock kernel intervals
// (per node and worker slot) and message departure/arrival times into a
// trace.Recorder, so real executions feed the same Gantt, utilization and
// CSV machinery as the simulator.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
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

// ErrCanceled is the error Run returns when Options.Context was cancelled
// before the run completed: the job's cluster plane was poisoned, every
// engine wound down, and the partial factors were discarded. It wraps
// context.Canceled (and the deadline variant satisfies errors.Is against
// context.DeadlineExceeded through the joined cause).
var ErrCanceled = errors.New("run canceled")

// Options tunes the engine.
type Options struct {
	// Workers is the number of concurrent kernel executors per node, and the
	// only intra-node parallelism there is: a kernel runs sequentially on the
	// worker that dispatched it, so a run computes on at most P × Workers
	// cores. Values above 1 model multi-core nodes; correctness is guaranteed
	// by the task graph for any value, and final factors are bit-identical
	// across worker counts (each task is one whole sequential kernel).
	// Workers <= 0 — including the zero value — is normalized to 1 (see
	// normalize); newEngine assumes normalized options.
	Workers int
	// Recorder, when non-nil, receives every kernel interval and message of
	// the run (wall-clock seconds since the run started) for the
	// Gantt/utilization analyses of package trace.
	Recorder *trace.Recorder
	// Broadcast selects the transport for published tiles:
	// cluster.BroadcastFlat (default, the paper's point-to-point model) or
	// cluster.BroadcastTree, which relays each broadcast down a binomial
	// tree so the owner's NIC serializes ⌈log₂(k+1)⌉ sends instead of k.
	// Final factors are bit-identical across modes; only the wire routing
	// (the cluster.Hops and cluster.Forwards counters of Report.Stats) changes.
	Broadcast cluster.BroadcastMode
	// Cluster, when non-nil, runs the job over this existing shared cluster
	// instead of creating a private one: the run takes a fresh tile
	// namespace of its own (cluster.OpenJob), so many concurrent Runs
	// multiplex one substrate — the multi-tenant service's mode — and their
	// identically-numbered tiles never collide. The cluster's node count must
	// equal the distribution's. The run closes and drops only its own
	// namespace before it returns, however it ends; the shared cluster and
	// its other tenants stay up. The broadcast mode and network seam are the
	// shared cluster's: a Broadcast naming another mode is rejected.
	Cluster *cluster.Cluster
	// Context, when non-nil, is the run's cancellation seam: once it is
	// done, the run aborts — the job's cluster plane is poisoned exactly as
	// by comm.Abort, every engine winds down promptly, every in-flight
	// payload is released, and Run returns ErrCanceled.
	// On a shared cluster only this job's namespace is poisoned; other
	// tenants are untouched.
	Context context.Context
}

// normalize is the single point where Options are defaulted and cross-checked
// for a run under distribution d: every default the engines rely on is applied
// here, and a field that would otherwise be silently ignored — it needs another
// one that is unset, or contradicts the shared cluster — is rejected by name.
func (opt *Options) normalize(d dist.Distribution) error {
	P, cl := d.Nodes(), opt.Cluster
	switch {
	case cl != nil && cl.Nodes() != P:
		return fmt.Errorf("runtime: distribution %s wants %d nodes but the shared cluster has %d", d.Name(), P, cl.Nodes())
	case cl != nil && opt.Broadcast != cluster.BroadcastFlat && opt.Broadcast != cl.Broadcast():
		return fmt.Errorf("runtime: %s broadcast requested on a shared cluster built for %s broadcast", opt.Broadcast, cl.Broadcast())
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if cl != nil {
		// The substrate is the shared cluster's: its broadcast transport and
		// network seam apply to every tenant.
		opt.Broadcast = cl.Broadcast()
	}
	return nil
}

// Report summarizes one distributed execution.
type Report struct {
	// Stats holds the communication counters of the virtual network.
	Stats cluster.Stats
	// TasksPerNode counts the kernels each node executed.
	TasksPerNode []int
	// OwnedTilesPerNode and ReceivedTilesPerNode describe each node's memory
	// traffic: tiles it owns under the distribution, and remote tile versions
	// it took in over the run. Received tiles are
	// released after their last local consumer runs, so their count bounds
	// traffic, not residency.
	OwnedTilesPerNode    []int
	ReceivedTilesPerNode []int
	// PeakTilesPerNode is each node's working-set high-water mark: the
	// maximum number of tiles (owned + received-and-not-yet-released) the
	// node held at any instant. A received version counts as held even
	// when it arrived by reference to its owner's buffer and no copy exists:
	// the count models the working set of a distributed node, which would
	// hold the tile in its own memory. It is at most OwnedTilesPerNode +
	// ReceivedTilesPerNode, and strictly below it whenever tile release
	// reclaimed memory mid-run.
	PeakTilesPerNode []int
	// Sched holds each node's scheduler observability counters.
	Sched []SchedStats
	// Elapsed is the wall-clock duration of the distributed run.
	Elapsed time.Duration
}

// SchedStats describes one node's scheduling behaviour over a run.
type SchedStats struct {
	// StallSeconds is idle-worker time while the node's run is not over,
	// divided by Workers: each worker that finds nothing ready contributes the
	// wall-clock from the end of its last kernel (or from its start) until it
	// wakes with a task — or until the instant the node's own run is over
	// (its last task finished),
	// for a worker that gets none: on a serial chain the finishing worker
	// keeps the chain, and the other W−1 sleep through all of it. One idle
	// worker out of four accrues a quarter of what a fully idle node does. It
	// is time lost waiting on remote tile arrivals or local predecessor
	// completions rather than on compute; a node whose stall time dominates
	// its kernel time is communication-bound. Nothing after the node's own run
	// is counted, however long its peers still compute.
	StallSeconds float64
	// WorkerBusySeconds is the wall-clock each worker slot spent running its
	// tasks — the per-worker utilization behind StallSeconds. A worker reads
	// the clock once per kernel, at its end, so a task's busy time is its
	// kernel plus the publication and pop between it and the slot's previous
	// clock read; busy and stall then add up to the worker's lifetime. With a
	// Recorder set each kernel's start is read as well, and busy is the
	// kernels alone: the recorded task intervals, summed.
	WorkerBusySeconds []float64
	// StealsPerWorker is always nil: a node's workers pull from one shared
	// queue, so there is no other worker's queue to take from. The field stays
	// declared only because bench/factor.go ranges over it and the benchmark's
	// files are frozen to a PR of their own (ROADMAP item 7a).
	StealsPerWorker []int
	// ReadyPeak is the high-water mark of the node's ready queue: how much
	// dispatchable work was queued behind the busy workers at the worst
	// instant. Persistently small peaks mean the node is starved; large
	// peaks mean it is the bottleneck.
	ReadyPeak int
}

// Run executes graph g on a fresh virtual cluster with the given tile
// distribution, initial tile generator and kernel. It returns the final tile
// contents via collect: after all nodes finish, collect is called once for
// every tile with its final payload. Run is plan.Compile followed by RunPlan;
// callers that run one (graph, distribution) pair repeatedly compile once and
// call RunPlan.
//
// gen is called concurrently — each node generates the tiles it owns on its
// own goroutine — and must be a pure function of (i, j) that returns a fresh tile
// per call: the engine takes the tile as the owner's storage and its kernels
// update it in place.
//
// collect is called from the calling goroutine, one tile at a time, exactly
// once per tile, and owns what it receives: the engines are finished, nothing
// else refers to the tile, and it is the buffer the last kernel wrote.
// Keeping the pointer is the cheap way to
// keep the result; a caller that wants a copy makes one.
//
// The run reads no tile size: b is the one gen produces, and goes unused.
func Run(g dag.Graph, d dist.Distribution, b int,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options,
	collect func(i, j int, t *tile.Tile)) (*Report, error) {

	pl, err := compile(g, d)
	if err != nil {
		return nil, err
	}
	return RunPlan(pl, gen, kern, opt, collect)
}

// compile is plan.Compile with the error every entry point of this package
// reports for a pair the protocol cannot serve.
func compile(g dag.Graph, d dist.Distribution) (*plan.Plan, error) {
	pl, err := plan.Compile(g, d)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return pl, nil
}

// RunPlan executes a compiled plan: every engine reads its share of pl and
// allocates only its per-run mutable state, so set-up costs O(P) allocations
// plus the owned tiles gen creates, whatever the task count. pl is not
// modified and may serve any number of concurrent runs. gen and collect are
// called as Run describes.
func RunPlan(pl *plan.Plan,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options,
	collect func(i, j int, t *tile.Tile)) (*Report, error) {

	P := pl.Nodes()
	if err := opt.normalize(pl.Dist()); err != nil {
		return nil, err
	}
	cl := opt.Cluster
	if cl == nil {
		cl = cluster.NewWithOptions(P, cluster.Options{Broadcast: opt.Broadcast})
	}
	// The run's own namespace, dropped on every return path below: all of
	// them come after every node drained and Report.Stats took the ledger.
	job := cl.OpenJob()
	defer cl.DropJob(job)

	start := time.Now()
	engines := make([]*engine, P)
	for rank := 0; rank < P; rank++ {
		engines[rank] = newEngine(rank, cl.JobComm(job, rank), pl, gen, kern, opt, start)
	}
	for _, e := range engines {
		e.open()
	}

	// Cancellation seam: a context that ends before the run does poisons
	// this job's plane — exactly comm.Abort's failure surface, so every
	// engine winds down through the ordinary abort path and, on a shared
	// cluster, no other tenant notices.
	// Closing the plane wakes every node on the closing goroutine, so the
	// watcher is joined before the ledger is read.
	runDone := make(chan struct{})
	var cancelled atomic.Bool
	var watcher sync.WaitGroup
	if opt.Context != nil {
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-opt.Context.Done():
				cancelled.Store(true)
				cl.CloseJob(job)
			case <-runDone:
			}
		}()
	}

	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.run()
		}()
	}
	wg.Wait()
	close(runDone)
	watcher.Wait()
	// Closing the job's plane is all the teardown there is: on a private
	// cluster it is the only plane, on a shared one the other tenants stay up.
	cl.CloseJob(job)
	elapsed := time.Since(start)
	// The plane is closed, so nothing is taken in or queued any more: once
	// each node has taken in what its mailbox still holds — a repeat that
	// lands there fails its node, after its run is over — the errors and the
	// ledger are final.
	errs := make([]error, P)
	for rank, e := range engines {
		e.mu.Lock()
		e.unlock()
		errs[rank] = e.err
	}
	if n := cl.PoolOutstanding(); opt.Cluster == nil && n != 0 {
		// Every payload of a private cluster is this run's, and every share
		// was taken in or released above.
		return nil, fmt.Errorf("runtime: internal error: %d payloads still lent after the run's cluster was torn down", n)
	}

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

	// The job's ledger is the one count of its traffic, handed over rather
	// than copied; the engines keep no tallies of their own.
	rep := &Report{
		Stats:                cl.JobStats(job),
		TasksPerNode:         make([]int, P),
		OwnedTilesPerNode:    make([]int, P),
		ReceivedTilesPerNode: make([]int, P),
		PeakTilesPerNode:     make([]int, P),
		Sched:                make([]SchedStats, P),
		Elapsed:              elapsed,
	}
	for rank, e := range engines {
		rep.TasksPerNode[rank] = e.done
		rep.OwnedTilesPerNode[rank] = e.ownedTiles
		rep.ReceivedTilesPerNode[rank] = e.recvTotal
		rep.PeakTilesPerNode[rank] = e.peakTiles
		busy := make([]float64, len(e.busy))
		for w, ns := range e.busy {
			busy[w] = float64(ns) / 1e9
		}
		rep.Sched[rank] = SchedStats{
			StallSeconds:      float64(e.stallNanos) / 1e9 / float64(e.workers),
			WorkerBusySeconds: busy,
			ReadyPeak:         e.readyPeak,
		}
	}

	if collect != nil {
		for rank, e := range engines {
			lo, hi := pl.Tiles(rank)
			for tl := lo; tl < hi; tl++ {
				i, j := pl.TileCoords(tl)
				collect(i, j, e.tile(tl))
			}
		}
	}
	return rep, nil
}
