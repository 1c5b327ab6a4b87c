package main

import (
	"errors"
	"fmt"
	"math"
	gort "runtime"
	"time"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/lowerbound"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
	"anybc/internal/serve"
	"anybc/internal/simulate"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// factors is one factorization's output: exactly one field is set.
type factors struct {
	dense *matrix.Dense
	chol  *matrix.SymmetricLower
}

func (f factors) norm() float64 {
	if f.dense != nil {
		return f.dense.FrobeniusNorm()
	}
	return f.chol.FrobeniusNorm()
}

func (f factors) hash() uint64 {
	if f.dense != nil {
		return hashDense(f.dense)
	}
	return hashLower(f.chol)
}

// factorRun is a set-up factor workload: distribution, generator and the
// warm-up's digest that every timed iteration must reproduce bit for bit.
type factorRun struct {
	shape    *factorShape
	d        dist.Distribution
	gen      func(i, j int) *tile.Tile
	kernel   runtime.Kernel
	opt      runtime.Options
	graph    dag.Graph // a private copy for counts; timed calls build their own
	tasks    int
	flops    float64
	eq1      int64 // dag.CommVolumeTiles: the messages Eq. (1)/(2) predict
	hash     uint64
	residual float64
	distS    float64
}

func (s *factorShape) lu() bool { return s.kind == serve.KindLU }

func (s *factorShape) newGraph() dag.Graph {
	if s.lu() {
		return dag.NewLU(s.mt)
	}
	return dag.NewCholesky(s.mt)
}

func setupFactor(s *factorShape, seed int64) (*factorRun, error) {
	f := &factorRun{shape: s, opt: runtime.Options{Workers: s.workers, Broadcast: s.broadcast}}
	start := time.Now()
	d, err := core.New(s.scheme, s.p, core.Options{GCRMSearch: gcrmSearch})
	if err != nil {
		return nil, err
	}
	f.d, f.distS = d, time.Since(start).Seconds()
	if s.lu() {
		f.gen, f.kernel = runtime.GenDiagDominant(s.mt, s.b, seed), runtime.LUKernel
	} else {
		f.gen, f.kernel = runtime.GenSPD(s.mt, s.b, seed), runtime.CholeskyKernel
	}
	f.graph = s.newGraph()
	f.tasks, f.flops = f.graph.NumTasks(), f.graph.TotalFlops(s.b)
	f.eq1 = dag.CommVolumeTiles(f.graph, d.Owner)

	// Warm-up: one untraced call, checked against the generated matrix.
	fx, rep, err := f.call()
	if err != nil {
		return nil, err
	}
	if s.lu() {
		f.residual = freivaldsLU(fx.dense, seed)
	} else {
		f.residual = freivaldsCholesky(fx.chol, seed)
	}
	if !(f.residual <= freivaldsTol) {
		return nil, fmt.Errorf("warm-up factors are wrong: relative error %.3g > %g", f.residual, freivaldsTol)
	}
	f.hash = fx.hash()
	return f, f.checkMessages(rep)
}

// call is the factorization as a user makes it: graph construction, tile
// generation, the distributed run and the gather, with no wrapper installed.
func (f *factorRun) call() (factors, *runtime.Report, error) {
	s := f.shape
	if s.lu() {
		m, rep, err := runtime.FactorLU(s.mt, s.b, f.d, f.gen, f.opt)
		return factors{dense: m}, rep, err
	}
	m, rep, err := runtime.FactorCholesky(s.mt, s.b, f.d, f.gen, f.opt)
	return factors{chol: m}, rep, err
}

// tracedCall is call with gen, Kernel and collect wrapped; it mirrors
// runtime.FactorLU / FactorCholesky line for line.
func (f *factorRun) tracedCall(ct *callTrace) (factors, *runtime.Report, float64, error) {
	s := f.shape
	id := ct.tr.begin("dag.build", ct.parent, ct.iter)
	g := s.newGraph()
	buildS := ct.tr.end(id)
	var fx factors
	var collect func(i, j int, t *tile.Tile)
	if s.lu() {
		fx.dense = matrix.NewDense(s.mt, s.mt, s.b)
		collect = func(i, j int, t *tile.Tile) { fx.dense.SetTile(i, j, t.Clone()) }
	} else {
		fx.chol = matrix.NewSymmetricLower(s.mt, s.b)
		collect = func(i, j int, t *tile.Tile) { fx.chol.Tile(i, j).CopyFrom(t) }
	}
	id = ct.tr.begin("runtime.Run", ct.parent, ct.iter)
	rep, err := runtime.Run(g, f.d, s.b, ct.wrapGen(f.gen), ct.wrapKernel(f.kernel), f.opt, ct.wrapCollect(collect))
	ct.tr.end(id)
	return fx, rep, buildS, err
}

func (f *factorRun) checkMessages(rep *runtime.Report) error {
	if got := rep.Stats.TotalMessages(); got != f.eq1 {
		return fmt.Errorf("cluster sent %d messages, Eq. (1)/(2) predicts %d", got, f.eq1)
	}
	return nil
}

// check verifies one timed call's outputs.
func (f *factorRun) check(fx factors, rep *runtime.Report, err error) error {
	if err != nil {
		return err
	}
	if h := fx.hash(); h != f.hash {
		return fmt.Errorf("factors differ from the warm-up's (digest %x, want %x)", h, f.hash)
	}
	return f.checkMessages(rep)
}

func (f *factorRun) iterate(t *tally) {
	start := time.Now()
	fx, rep, err := f.call()
	lat := time.Since(start)
	f.count(t, lat, f.check(fx, rep, err))
}

// count tallies one checked call and reports whether it passed.
func (f *factorRun) count(t *tally, lat time.Duration, err error) bool {
	t.attempted++
	if err != nil {
		t.fail(err)
		return false
	}
	t.latMs = append(t.latMs, lat.Seconds()*1e3)
	t.wallS += lat.Seconds()
	return true
}

// keptTaskIterations is how many traced iterations keep one span per task.
const keptTaskIterations = 2

// traced runs the probes, then the given number of iterations of one
// untraced and one wrapped call, then the baselines the per-layer metrics are
// expressed against.
func (f *factorRun) traced(t *tally, tr *tracer, iterations int) map[string]float64 {
	s := f.shape
	v := map[string]float64{}
	cores := float64(min(gort.NumCPU(), s.p*s.workers))

	probes := probeTile(s.b, s.lu())
	probes.report(v)
	probeDag(f.graph, v)
	probeDist(f.d, s.mt, v)
	probeSched(f.graph, v)
	probeCluster(s.b, v)
	v["dist.build_s"] = f.distS
	if s.scheme == core.GCRM {
		v["gcrm.search_s"] = f.distS
	}
	v["pattern.cost_T"] = patternCost(f.d, s.lu())
	v["matrix.residual"] = f.residual
	v["dag.tasks"] = float64(f.tasks)
	v["dag.critical_path_flops"] = dag.CriticalPathFlops(f.graph, s.b)
	computedS := probes.computedSeconds(f.graph, s.b)
	v["tile.flops"] = f.flops
	v["tile.kernel_computed_s"] = computedS

	var plainMs, wrappedMs []float64
	var walls, elapsed, gens, collects, kernWalls, builds []float64
	var last *runtime.Report
	var ms0, ms1 gort.MemStats
	var plainCPU float64
	gort.GC()
	for iter := 0; iter < iterations; iter++ {
		// Untraced call: the base of the overhead ratio and of the
		// allocation counts, which the wrappers must not inflate.
		gort.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		start := time.Now()
		fx, rep, err := f.call()
		lat := time.Since(start)
		plainCPU += cpuSeconds() - cpu0
		gort.ReadMemStats(&ms1)
		if !f.count(t, lat, f.check(fx, rep, err)) {
			return v
		}
		plainMs = append(plainMs, lat.Seconds()*1e3)
		v["runtime.allocs_per_factor"] += float64(ms1.Mallocs - ms0.Mallocs)
		v["runtime.bytes_per_factor"] += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		v["runtime.gc_pause_ms"] += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

		// Wrapped call.
		root := tr.begin("factor", 0, iter)
		keep := 0
		if iter < keptTaskIterations {
			keep = f.tasks
		}
		ct := newCallTrace(tr, root, iter, keep)
		start = time.Now()
		fx, rep, buildS, err := f.tracedCall(ct)
		lat = time.Since(start)
		tr.end(root)
		ct.flush()
		id := tr.begin("bench.verify", root, iter)
		err = f.check(fx, rep, err)
		tr.end(id)
		if !f.count(t, lat, err) {
			return v
		}
		wrappedMs = append(wrappedMs, lat.Seconds()*1e3)
		last = rep
		walls = append(walls, lat.Seconds())
		elapsed = append(elapsed, rep.Elapsed.Seconds())
		gens = append(gens, unionSeconds(ct.gen))
		collects = append(collects, unionSeconds(ct.collect))
		kernWalls = append(kernWalls, float64(ct.kernNanos.Load())/1e9)
		v["tile.calls"] = float64(ct.kernCalls.Load())
		builds = append(builds, buildS)
	}
	n := float64(len(plainMs))
	for _, k := range []string{"runtime.allocs_per_factor", "runtime.bytes_per_factor", "runtime.gc_pause_ms"} {
		v[k] /= n
	}
	v["harness.cpu_s_per_op"] = plainCPU / n

	wall, el := median(walls), median(elapsed)
	v["tile.kernel_wall_s"] = median(kernWalls)
	v["tile.wall_over_computed"] = median(kernWalls) / computedS
	v["matrix.gen_s"] = median(gens)
	v["matrix.collect_s"] = median(collects)
	v["dag.build_s"] = median(builds)
	v["runtime.elapsed_ms"] = el * 1e3
	v["runtime.factor_gflops"] = f.flops / (median(plainMs) / 1e3) / 1e9
	pct := tailPercentile(len(plainMs))
	v["runtime.factor_tail_pct"] = pct
	v["runtime.factor_tail_ms"] = percentile(plainMs, pct)
	v["harness.trace_overhead_frac"] = median(wrappedMs)/median(plainMs) - 1

	a := attribute(wall, el, median(gens), median(collects), computedS/cores)
	v["runtime.attr_gen"], v["runtime.attr_collect"], v["runtime.attr_prepost"] = a.gen, a.collect, a.prepost
	v["runtime.attr_kernel"], v["runtime.attr_other"] = a.kernel, a.other

	reportCluster(last, f, v)
	reportSched(last, v)

	// The bound on elapsed time at the solo GEMM rate: the critical path, or
	// all the work on the cores the node goroutines can occupy.
	gemmRate := probes.gemm * 1e9
	bound := math.Max(v["dag.critical_path_flops"], f.flops/cores) / gemmRate
	v["runtime.makespan_over_bound"] = el / bound

	// The plain baseline: the same matrix on one node with one worker.
	if p1, err := f.singleNode(); err != nil {
		t.attempted++
		t.fail(fmt.Errorf("P=1 baseline: %w", err))
	} else {
		v["runtime.p1_factor_ms"] = p1 * 1e3
		v["runtime.speedup_vs_p1"] = p1 / (median(plainMs) / 1e3)
	}

	// The simulator's prediction for this run on a machine calibrated from
	// the probes above: the time analogue of the byte ratios.
	m := simulate.Machine{
		Workers:        s.workers,
		FlopsPerWorker: gemmRate * math.Min(1, float64(gort.NumCPU())/float64(s.p*s.workers)),
		LinkBandwidth:  v["cluster.sendall_mb_s"] * 1e6,
		Latency:        v["cluster.sendrecv_ns"] / 1e9,
	}
	if sim, err := simulate.Run(f.graph, s.b, f.d, m, simulate.Options{Broadcast: s.broadcast}); err != nil {
		t.attempted++
		t.fail(fmt.Errorf("calibrated simulation: %w", err))
	} else {
		v["simulate.predicted_over_measured"] = sim.Makespan / el
	}

	if s.recorderPass {
		v["trace.recorder_overhead_frac"] = f.recorderOverhead(median(plainMs), t)
	}
	return v
}

// singleNode factors the same matrix on P=1 with one worker, twice, and
// returns the faster wall-clock in seconds; the factors must match the
// distributed run's bit for bit.
func (f *factorRun) singleNode() (float64, error) {
	solo := *f
	solo.d = dist.NewTwoDBC(1, 1)
	solo.opt = runtime.Options{Workers: 1}
	best := math.Inf(1)
	for i := 0; i < 2; i++ {
		start := time.Now()
		fx, _, err := solo.call()
		lat := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		if fx.hash() != f.hash {
			return 0, errors.New("single-node factors differ from the distributed run's")
		}
		best = math.Min(best, lat)
	}
	return best, nil
}

// recorderOverhead times a short pass with Options.Recorder set and returns
// its median over the untraced median, minus one.
func (f *factorRun) recorderOverhead(plainMs float64, t *tally) float64 {
	rec := *f
	var lats []float64
	for i := 0; i < 30; i++ {
		rec.opt.Recorder = &trace.Recorder{}
		start := time.Now()
		fx, rep, err := rec.call()
		lat := time.Since(start)
		t.attempted++
		if err := f.check(fx, rep, err); err != nil {
			t.fail(fmt.Errorf("recorder pass: %w", err))
			return 0
		}
		lats = append(lats, lat.Seconds()*1e3)
	}
	return median(lats)/plainMs - 1
}

// reportCluster fills the cluster layer's counters from a run's report.
func reportCluster(rep *runtime.Report, f *factorRun, v map[string]float64) {
	st := rep.Stats
	v["cluster.messages"] = float64(st.TotalMessages())
	v["cluster.bytes"] = float64(st.TotalBytes())
	v["cluster.wire_bytes"] = float64(st.TotalWireBytes())
	v["cluster.hops"] = float64(st.TotalHops())
	v["cluster.forwards"] = float64(st.TotalForwards())
	for _, pk := range st.MailboxPeak {
		v["cluster.mailbox_peak"] = math.Max(v["cluster.mailbox_peak"], float64(pk))
	}
	v["cluster.msgs_over_eq1"] = float64(st.TotalMessages()) / float64(f.eq1)
	s := f.shape
	n := float64(s.mt * s.b)
	boundWords := lowerbound.LUPerNode(n, s.p)
	if !s.lu() {
		boundWords = lowerbound.CholeskyPerNodeRepl(n, s.p, 1)
	}
	meanRecv := float64(st.TotalBytes()) / float64(s.p)
	v["cluster.recv_bytes_over_bound"] = meanRecv / (8 * boundWords)
}

// reportSched fills the runtime layer's scheduler counters.
func reportSched(rep *runtime.Report, v map[string]float64) {
	for n, sc := range rep.Sched {
		v["runtime.stall_s"] += sc.StallSeconds
		for _, b := range sc.WorkerBusySeconds {
			v["runtime.busy_s"] += b
		}
		for _, st := range sc.StealsPerWorker {
			v["runtime.steals"] += float64(st)
		}
		v["runtime.ready_peak"] = math.Max(v["runtime.ready_peak"], float64(sc.ReadyPeak))
		v["runtime.peak_tiles"] += float64(rep.PeakTilesPerNode[n])
		v["runtime.footprint_tiles"] += float64(rep.OwnedTilesPerNode[n] + rep.ReceivedTilesPerNode[n])
	}
}

// patternCost returns the paper's cost T of the distribution's pattern:
// x̄+ȳ for LU, z̄ for Cholesky; 0 if the distribution has no pattern.
func patternCost(d dist.Distribution, lu bool) float64 {
	if lu {
		c, _ := dist.TryCostLU(d)
		return c
	}
	c, _ := dist.TryCostCholesky(d)
	return c
}
