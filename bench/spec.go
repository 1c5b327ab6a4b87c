package main

import (
	"math"

	"anybc/internal/cluster"
	"anybc/internal/core"
	"anybc/internal/gcrm"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 12

// gcrmSearch is the GCR&M pattern search every symmetric workload pays in
// set-up: the reduced protocol of bench_test.go, deterministic for BaseSeed 1.
var gcrmSearch = gcrm.SearchOptions{Seeds: 10, SizeFactor: 4, BaseSeed: 1, Parallel: true}

// factorShape sizes one runtime.Run workload.
type factorShape struct {
	kind      string // serve.KindLU or serve.KindCholesky
	scheme    core.Scheme
	mt, b, p  int
	workers   int
	broadcast cluster.BroadcastMode
	// recorderPass adds a short pass with Options.Recorder set to the traced
	// run, for trace.recorder_overhead_frac.
	recorderPass bool
}

// serveShape sizes the serve-mix workload: clients × batches × batch jobs
// per round over a fresh P-node, tile-side-B server.
type serveShape struct {
	p, b, maxConcurrent int
	clients, batches    int
	batch               int
	mts                 []int
}

// simShape sizes the sim-paper workload; the goldens are the exact results
// of the two simulations on simulate.PaperMachine.
type simShape struct {
	mt, b, p     int
	makespanLU   float64
	makespanChol float64
	messagesLU   int64
	messagesChol int64
}

// workload is one row of the workload table. ops is how many timed
// operations a run of runSeconds makes (rounds of 320 jobs on serve-mix): a
// fixed count, so both sides of an A/B do identical work; -seconds scales it
// in proportion. The counts are sized to ≈10.5 s on the sandbox.
//
// tailPct is the percentile op_tail_ms reports: the highest of tailLadder
// that leaves at least ten of the run's samples beyond it (a test holds the
// table to that rule). That is p99 over 5 760 jobs on serve-mix and p90 over
// 480 calls on lu-overhead; the three slow workloads make under 40 samples a
// run, so there only the median qualifies and the tail is the traced pass's
// runtime.factor_tail_ms.
type workload struct {
	name    string
	why     string
	ops     int
	tailPct float64
	factor  *factorShape
	serve   *serveShape
	sim     *simShape
}

// samples is how many latencies a run of runSeconds collects: one per
// operation, or one per job of each serve round.
func (w *workload) samples() int {
	if s := w.serve; s != nil {
		return w.ops * s.clients * s.batches * s.batch
	}
	return w.ops
}

// opsFor scales the table's count to a run of the given length.
func (w *workload) opsFor(seconds float64) int {
	return max(1, int(math.Round(float64(w.ops)*seconds/runSeconds)))
}

// workloads is the one table that sizes the benchmark.
var workloads = []*workload{
	{
		name: "lu-compute",
		why:  "kernel-bound LU, n=3072 b=256 on G-2DBC(P=4): tile does most of the CPU work, the event loop almost none",
		ops:  18, tailPct: 50,
		factor: &factorShape{kind: "lu", scheme: core.G2DBC, mt: 12, b: 256, p: 4, workers: 1},
	},
	{
		name: "lu-overhead",
		why:  "overhead-bound LU, mt=24 b=8 on G-2DBC(P=44), 2 workers: dag, runtime, cluster and sched do the work, kernels under a tenth",
		ops:  480, tailPct: 90,
		factor: &factorShape{kind: "lu", scheme: core.G2DBC, mt: 24, b: 8, p: 44, workers: 2, recorderPass: true},
	},
	{
		name: "chol-p23",
		why:  "the paper's headline shape: Cholesky n=3072 b=128 on GCR&M(P=23) with tree broadcast, 23 node goroutines on few cores",
		ops:  36, tailPct: 50,
		factor: &factorShape{kind: "cholesky", scheme: core.GCRM, mt: 24, b: 128, p: 23, workers: 1,
			broadcast: cluster.BroadcastTree},
	},
	{
		name: "serve-mix",
		why:  "factserve under load: 2 closed-loop clients keep 8 short LU/Cholesky jobs against 4 slots, so admission and per-job set-up dominate",
		ops:  18, tailPct: 99,
		serve: &serveShape{p: 4, b: 32, maxConcurrent: 4, clients: 2, batches: 40, batch: 4, mts: []int{4, 8, 12}},
	},
	{
		name: "sim-paper",
		why:  "figure regeneration: simulate LU under G-2DBC(23) and Cholesky under GCR&M(23), mt=100 b=500; no runtime, no kernels",
		ops:  34, tailPct: 50,
		sim: &simShape{mt: 100, b: 500, p: 23,
			makespanLU: goldenMakespanLU, makespanChol: goldenMakespanChol,
			messagesLU: goldenMessagesLU, messagesChol: goldenMessagesChol},
	},
}

// smokeWorkloads are the same five at tiny sizes: -smoke and the tests drive
// every code path and check in seconds; their numbers mean nothing.
var smokeWorkloads = []*workload{
	{name: "lu-compute", ops: 3, tailPct: 50,
		factor: &factorShape{kind: "lu", scheme: core.G2DBC, mt: 4, b: 32, p: 4, workers: 1}},
	{name: "lu-overhead", ops: 3, tailPct: 50,
		factor: &factorShape{kind: "lu", scheme: core.G2DBC, mt: 8, b: 8, p: 44, workers: 2, recorderPass: true}},
	{name: "chol-p23", ops: 3, tailPct: 50,
		factor: &factorShape{kind: "cholesky", scheme: core.GCRM, mt: 8, b: 16, p: 23, workers: 1,
			broadcast: cluster.BroadcastTree}},
	{name: "serve-mix", ops: 3, tailPct: 50,
		serve: &serveShape{p: 4, b: 8, maxConcurrent: 4, clients: 2, batches: 3, batch: 4, mts: []int{2, 3, 4}}},
	{name: "sim-paper", ops: 3, tailPct: 50,
		sim: &simShape{mt: 20, b: 500, p: 23,
			makespanLU: smokeMakespanLU, makespanChol: smokeMakespanChol,
			messagesLU: smokeMessagesLU, messagesChol: smokeMessagesChol}},
}

// findWorkload returns the named workload at full or smoke size.
func findWorkload(name string, smoke bool) *workload {
	table := workloads
	if smoke {
		table = smokeWorkloads
	}
	for _, w := range table {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricSpec names one metric. bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics have none.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd lists what a user of the system sees. The driver's contract has
// every run of every workload report all of them, never 0, so the names are
// generic: an "op" is one whole factorization call on the three factor
// workloads, one job from Submit to completion on serve-mix, and one pair of
// simulations on sim-paper. Only values clocked on their own are listed;
// GFlop/s and tasks per second are unit conversions of op_p50_ms and are
// per-layer (runtime.factor_gflops, simulate.tasks_per_s). Timings are
// normalised to the machine's speed (calib.go).
//
// A bound is three times the widest spread its metric showed over the five
// workloads in two sets of ten runs (noise.json beside this file, table in
// README.md), rounded up to a twentieth and capped at the contract's 0.25.
// The widest spread of every timing is 8 to 10 % — what the shared host
// leaves after normalisation — so the timings sit at the cap. peak_rss_mb is
// the exception: it does not follow the host's speed, four workloads repeat
// within 3 %, and chol-p23 alternates between two garbage-collection phases
// 9 % apart, which caps its spread at about a tenth whatever the host does.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_op", "s", "lower", 0.25},
}

func lo(name, unit string) metricSpec { return metricSpec{name, unit, "lower", 0} }
func hi(name, unit string) metricSpec { return metricSpec{name, unit, "higher", 0} }

// perLayer lists the traced pass's metrics, layer = package name. They have
// no bound. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	// tile: solo probes at the workload's b, each called from one goroutine,
	// and the wrapped Kernel. "computed" is derived from counts and the solo
	// rates, not clocked.
	hi("tile.gemm_gflops", "GFlop/s"),
	hi("tile.trsm_gflops", "GFlop/s"),
	hi("tile.getrf_gflops", "GFlop/s"),
	hi("tile.potrf_gflops", "GFlop/s"),
	hi("tile.syrk_gflops", "GFlop/s"),
	lo("tile.calls", "count"),
	lo("tile.flops", "flop"),
	lo("tile.kernel_wall_s", "s"),
	lo("tile.kernel_computed_s", "s"),
	lo("tile.wall_over_computed", "ratio"),

	lo("matrix.gen_s", "s"),
	lo("matrix.collect_s", "s"),
	lo("matrix.residual", "ratio"),

	lo("dag.build_s", "s"),
	lo("dag.walk_ns_per_task", "ns"),
	lo("dag.tasks", "count"),
	lo("dag.critical_path_flops", "flop"),

	lo("dist.build_s", "s"),
	lo("dist.owner_ns", "ns"),
	lo("gcrm.search_s", "s"),
	lo("pattern.cost_T", "count"),

	lo("sched.heap_ns_per_op", "ns"),

	lo("cluster.messages", "count"),
	lo("cluster.bytes", "B"),
	lo("cluster.wire_bytes", "B"),
	lo("cluster.hops", "count"),
	lo("cluster.forwards", "count"),
	lo("cluster.mailbox_peak", "count"),
	lo("cluster.msgs_over_eq1", "ratio"),
	lo("cluster.recv_bytes_over_bound", "ratio"),
	lo("cluster.sendrecv_ns", "ns"),
	hi("cluster.sendall_mb_s", "MB/s"),

	lo("runtime.elapsed_ms", "ms"),
	hi("runtime.factor_gflops", "GFlop/s"),
	lo("runtime.factor_tail_ms", "ms"),
	lo("runtime.factor_tail_pct", "%"),
	lo("runtime.allocs_per_factor", "count"),
	lo("runtime.bytes_per_factor", "B"),
	lo("runtime.gc_pause_ms", "ms"),
	lo("runtime.stall_s", "s"),
	lo("runtime.busy_s", "s"),
	lo("runtime.steals", "count"),
	lo("runtime.ready_peak", "count"),
	lo("runtime.peak_tiles", "count"),
	lo("runtime.footprint_tiles", "count"),
	lo("runtime.p1_factor_ms", "ms"),
	hi("runtime.speedup_vs_p1", "ratio"),
	lo("runtime.makespan_over_bound", "ratio"),
	// Five fractions of one factorization's wall-clock that sum to 1.
	lo("runtime.attr_gen", "fraction"),
	lo("runtime.attr_collect", "fraction"),
	lo("runtime.attr_prepost", "fraction"),
	lo("runtime.attr_kernel", "fraction"),
	lo("runtime.attr_other", "fraction"),

	lo("serve.latency_p50_ms", "ms"),
	lo("serve.latency_p99_ms", "ms"),
	lo("serve.queue_wait_p50_ms", "ms"),
	lo("serve.queue_wait_p99_ms", "ms"),
	lo("serve.run_p50_ms", "ms"),
	lo("serve.submit_us_p50", "us"),
	lo("serve.result_us_p50", "us"),
	lo("serve.cold_job_ms", "ms"),
	lo("serve.warm_job_ms", "ms"),
	hi("serve.cache_hits", "count"),
	lo("serve.cache_misses", "count"),
	lo("serve.rejected", "count"),
	lo("serve.pool_outstanding_end", "count"),
	lo("serve.retained_mb_per_kjob", "MB"),
	lo("serve.run_over_solo", "ratio"),

	lo("simulate.ns_per_task", "ns"),
	hi("simulate.tasks_per_s", "1/s"),
	lo("simulate.makespan_lu_s", "s"),
	lo("simulate.makespan_chol_s", "s"),
	lo("simulate.messages", "count"),
	lo("simulate.predicted_over_measured", "ratio"),

	lo("trace.recorder_overhead_frac", "fraction"),
	lo("harness.trace_overhead_frac", "fraction"),
	lo("harness.cpu_s_per_op", "s"),
	lo("harness.failed_share", "fraction"),
	lo("harness.speed_factor", "ratio"),
	hi("harness.samples", "count"),
	hi("harness.gomaxprocs", "count"),
}
