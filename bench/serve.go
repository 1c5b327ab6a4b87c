package main

import (
	"context"
	"fmt"
	"math/rand"
	gort "runtime"
	"sync"
	"time"

	"anybc/internal/core"
	"anybc/internal/runtime"
	"anybc/internal/serve"
)

// jobShape is what distinguishes two serve-mix jobs.
type jobShape struct {
	kind   string
	scheme string
	mt     int
}

// serveRun is a set-up serve-mix workload: the seeded job order and the
// Frobenius norm every job of a shape must reproduce.
type serveRun struct {
	shape *serveShape
	seed  int64
	jobs  []jobShape           // one round's submissions, in seeded order
	mu    sync.Mutex           // guards norms
	norms map[jobShape]float64 // norm of each shape's first occurrence
}

// jobRecord is what the harness sees of one job.
type jobRecord struct {
	shape             jobShape
	order             int // position among the round's jobs of the same shape
	latency           time.Duration
	submit, result    time.Duration
	queueWait, runSec float64
}

// roundStats is one round's per-layer view.
type roundStats struct {
	records    []jobRecord
	stats      serve.ServiceStats
	retainedMB float64 // heap growth across the round, server still open
	poolEnd    int64
}

func setupServe(s *serveShape, seed int64) (*serveRun, error) {
	r := &serveRun{shape: s, seed: seed, norms: map[jobShape]float64{}}
	// Shapes cycle through the tile counts, LU on G-2DBC alternating with
	// Cholesky on 2DBC; the seed then fixes the order they are submitted in.
	n := s.clients * s.batches * s.batch
	for i := 0; i < n; i++ {
		js := jobShape{serve.KindLU, string(core.G2DBC), s.mts[(i/2)%len(s.mts)]}
		if i%2 == 1 {
			js.kind, js.scheme = serve.KindCholesky, string(core.TwoDBC)
		}
		r.jobs = append(r.jobs, js)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { r.jobs[i], r.jobs[j] = r.jobs[j], r.jobs[i] })

	// Warm-up round: it fixes the norms, and its own checks must pass.
	var t tally
	r.round(&t, false)
	if t.failed > 0 {
		return nil, t.firstErr
	}
	return r, nil
}

func (r *serveRun) iterate(t *tally) { r.round(t, false) }

// round runs one round against a fresh server: finished jobs are never
// dropped from a Server, so reusing one would grow the heap without bound.
// Server construction and Close stay outside the round's wall-clock.
func (r *serveRun) round(t *tally, detail bool) *roundStats {
	s := r.shape
	srv, err := serve.New(serve.Config{P: s.p, B: s.b, MaxConcurrent: s.maxConcurrent, Workers: 1})
	if err != nil {
		t.attempted++
		t.fail(err)
		return nil
	}
	defer srv.Close()

	// Every round starts from a collected heap: the last round's server and
	// its retained jobs are garbage by now, and when the collector gets to
	// them would otherwise decide this round's tail.
	var heap0 gort.MemStats
	gort.GC()
	if detail {
		gort.ReadMemStats(&heap0)
	}

	perClient := len(r.jobs) / s.clients
	records := make([]jobRecord, len(r.jobs))
	errs := make([]error, len(r.jobs))
	var clients sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.clients; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for b := 0; b < s.batches; b++ {
				lo := c*perClient + b*s.batch
				r.batch(srv, lo, lo+s.batch, records, errs)
			}
		}(c)
	}
	clients.Wait()
	wall := time.Since(start)
	stats := srv.Stats()

	// Count the round: every job is one operation.
	firstOfShape := map[jobShape]int{}
	for i, rec := range records {
		t.attempted++
		if errs[i] != nil {
			t.fail(fmt.Errorf("job %d (%s mt=%d): %w", i, rec.shape.kind, rec.shape.mt, errs[i]))
			continue
		}
		records[i].order = firstOfShape[rec.shape]
		firstOfShape[rec.shape]++
		t.latMs = append(t.latMs, rec.latency.Seconds()*1e3)
	}
	t.wallS += wall.Seconds()
	if stats.Rejected != 0 || stats.Failed != 0 || stats.Canceled != 0 {
		t.attempted++
		t.fail(fmt.Errorf("service counted %d rejected, %d failed, %d canceled jobs", stats.Rejected, stats.Failed, stats.Canceled))
	}
	held := srv.Cluster().PoolOutstanding()
	if held != 0 {
		t.attempted++
		t.fail(fmt.Errorf("tile pool did not drain: %d tiles outstanding after the round", held))
	}
	if !detail {
		return nil
	}
	rs := &roundStats{records: records, stats: stats, poolEnd: held}
	var heap1 gort.MemStats
	gort.GC()
	gort.ReadMemStats(&heap1)
	rs.retainedMB = (float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / (1 << 20)
	return rs
}

// batch submits jobs [lo, hi) and waits for all of them. One goroutine per
// outstanding job blocks in Wait and stamps completion, so a job's latency
// does not depend on the order the client collects results in.
func (r *serveRun) batch(srv *serve.Server, lo, hi int, records []jobRecord, errs []error) {
	ids := make([]serve.JobID, hi-lo)
	var waiters sync.WaitGroup
	for i := lo; i < hi; i++ {
		js := r.jobs[i]
		records[i].shape = js
		spec := serve.JobSpec{Kind: js.kind, Scheme: js.scheme, Mt: js.mt, Seed: r.seed}
		submitted := time.Now()
		id, err := srv.Submit(spec)
		records[i].submit = time.Since(submitted)
		if err != nil {
			errs[i] = err
			continue
		}
		ids[i-lo] = id
		waiters.Add(1)
		go func(i int) {
			defer waiters.Done()
			errs[i] = srv.Wait(context.Background(), id)
			records[i].latency = time.Since(submitted)
		}(i)
	}
	waiters.Wait()
	for i := lo; i < hi; i++ {
		if errs[i] == nil {
			errs[i] = r.collect(srv, ids[i-lo], &records[i])
		}
	}
}

// collect reads a finished job's status and factors as a client would and
// checks them against the shape's first occurrence.
func (r *serveRun) collect(srv *serve.Server, id serve.JobID, rec *jobRecord) error {
	st, err := srv.Status(id)
	if err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	rec.queueWait, rec.runSec = st.QueueWaitSeconds, st.RunSeconds
	start := time.Now()
	res, _, err := srv.Result(id)
	rec.result = time.Since(start)
	if err != nil {
		return err
	}
	return r.checkNorm(rec.shape, factors{res.Dense, res.Chol}.norm())
}

// checkNorm holds a job's Frobenius norm against its shape's first
// occurrence; both clients call it.
func (r *serveRun) checkNorm(js jobShape, norm float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	want, seen := r.norms[js]
	if !seen {
		r.norms[js] = norm
		return nil
	}
	if norm != want {
		return fmt.Errorf("Frobenius norm %v differs from the shape's first occurrence %v", norm, want)
	}
	return nil
}

// traced runs the given number of detailed rounds and reports the serve
// layer from Status and Stats, then each shape's solo run for comparison.
func (r *serveRun) traced(t *tally, tr *tracer, iterations int) map[string]float64 {
	v := map[string]float64{}
	var lat, queue, run, submit, result, cold, warm, retained []float64
	runByShape := map[jobShape][]float64{}
	var hits, misses, rejected, poolEnd float64
	for iter := 0; iter < iterations; iter++ {
		id := tr.begin("serve.round", 0, iter)
		rs := r.round(t, true)
		tr.end(id)
		if rs == nil || t.failed > 0 {
			return v
		}
		for _, rec := range rs.records {
			lat = append(lat, rec.latency.Seconds()*1e3)
			queue = append(queue, rec.queueWait*1e3)
			run = append(run, rec.runSec*1e3)
			submit = append(submit, rec.submit.Seconds()*1e6)
			result = append(result, rec.result.Seconds()*1e6)
			runByShape[rec.shape] = append(runByShape[rec.shape], rec.runSec)
			if rec.order == 0 {
				cold = append(cold, rec.latency.Seconds()*1e3)
			} else {
				warm = append(warm, rec.latency.Seconds()*1e3)
			}
		}
		hits += float64(rs.stats.CacheHits)
		misses += float64(rs.stats.CacheMisses)
		rejected += float64(rs.stats.Rejected)
		poolEnd += float64(rs.poolEnd)
		retained = append(retained, rs.retainedMB/float64(len(rs.records))*1e3)
	}
	v["serve.latency_p50_ms"] = median(lat)
	v["serve.latency_p99_ms"] = percentile(lat, 99)
	v["serve.queue_wait_p50_ms"] = median(queue)
	v["serve.queue_wait_p99_ms"] = percentile(queue, 99)
	v["serve.run_p50_ms"] = median(run)
	v["serve.submit_us_p50"] = median(submit)
	v["serve.result_us_p50"] = median(result)
	v["serve.cold_job_ms"] = median(cold)
	v["serve.warm_job_ms"] = median(warm)
	v["serve.cache_hits"] = hits
	v["serve.cache_misses"] = misses
	v["serve.rejected"] = rejected
	v["serve.pool_outstanding_end"] = poolEnd
	v["serve.retained_mb_per_kjob"] = median(retained)

	// Each shape once more through a private cluster: what a job's run would
	// take with the machine to itself.
	var ratios []float64
	for js, runs := range runByShape {
		solo, err := r.solo(js)
		t.attempted++
		if err != nil {
			t.fail(fmt.Errorf("solo %s mt=%d: %w", js.kind, js.mt, err))
			return v
		}
		ratios = append(ratios, median(runs)/solo)
	}
	v["serve.run_over_solo"] = median(ratios)
	return v
}

// solo returns the median wall-clock in seconds of the shape's factorization
// through runtime.Run on a private cluster.
func (r *serveRun) solo(js jobShape) (float64, error) {
	f := &factorRun{shape: &factorShape{kind: js.kind, scheme: core.Scheme(js.scheme),
		mt: js.mt, b: r.shape.b, p: r.shape.p, workers: 1}}
	d, err := core.New(f.shape.scheme, f.shape.p, core.Options{})
	if err != nil {
		return 0, err
	}
	f.d, f.opt = d, runtime.Options{Workers: 1}
	f.gen = runtime.GenDiagDominant(js.mt, r.shape.b, r.seed)
	if js.kind == serve.KindCholesky {
		f.gen = runtime.GenSPD(js.mt, r.shape.b, r.seed)
	}
	var secs []float64
	for i := 0; i < 9; i++ {
		start := time.Now()
		fx, _, err := f.call()
		wall := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		if err := r.checkNorm(js, fx.norm()); err != nil {
			return 0, fmt.Errorf("solo run: %w", err)
		}
		secs = append(secs, wall)
	}
	return median(secs), nil
}
