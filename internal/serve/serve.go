// Package serve is the multi-tenant factorization service: the long-lived
// promotion of the one-shot runtime.Run library the ROADMAP's
// "millions of users" north star calls for. A Server owns one shared
// cluster.Cluster and runs many factorization DAGs over it concurrently —
// each job on its own tile-namespace plane (cluster.OpenJob's epoch in every
// cluster.Tag), so tenants can never read each other's tiles, a cancelled or
// failed job poisons only its own namespace, and every per-job
// runtime.Report carries exactly the accounting a dedicated cluster would
// have produced.
//
// Jobs flow through an admission controller in the hybrid static/dynamic
// spirit of Donfack, Grigori, Gropp and Kale: placement inside one job stays
// static (owner-computes over the cached distribution, for locality), while
// the service schedules dynamically across jobs — a bounded priority queue
// with a concurrent-jobs slot budget and a memory budget, backfilled in
// priority order. Submissions the service could never run (malformed specs,
// shapes over the budget) or cannot queue (queue full) are rejected
// descriptively and immediately: backpressure is an error the client sees,
// never a silent wedge.
//
// Repeated shapes skip their precomputation: a PatternCache keeps the
// distribution of each (scheme, P) and the runtime's process-wide plan cache
// the compiled plan of each job shape. A cold GCR&M key costs no search up to
// P = 64, where core reads the pattern from its embedded database.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
)

// Job kinds.
const (
	KindLU       = "lu"
	KindCholesky = "cholesky"
)

// maxWorkers caps a job's per-node worker request.
const maxWorkers = 16

// fetchWindowBytes bounds the factor bytes (resultBytes) of the fetched
// results the server keeps. Go's pacer doubles whatever is kept, and a live
// heap of a few MB already keeps the collector's CPU in the noise; a smaller
// window makes it show (DESIGN.md, "Job lifecycle and the result window").
const fetchWindowBytes = 8 << 20

// fetchWindowResults bounds the number of fetched results the server keeps,
// beside fetchWindowBytes. The byte bound alone is not enough: a held
// Report pins its P×P ledger blocks, which resultBytes does not count, so a
// window of many tiny jobs must stop at a count.
const fetchWindowResults = 64

// ErrRejected marks a submission the admission controller turned away —
// malformed spec, a shape the service can never run, or a full queue. The
// wrapping error says which; errors.Is(err, ErrRejected) identifies the
// class.
var ErrRejected = errors.New("job rejected")

// ErrNotFound is returned for operations on an unknown job id.
var ErrNotFound = errors.New("no such job")

// ErrExpired is returned by Result for a finished job whose factors the
// server has dropped: it keeps a fetched result only while the results
// fetched since, itself included, number at most fetchWindowResults and hold
// at most fetchWindowBytes of factors (see Result). The job's Status stays.
var ErrExpired = errors.New("result expired")

// JobID identifies one submitted job; ids start at 1.
type JobID int32

// JobState is the lifecycle of a job.
type JobState string

// Job lifecycle states. Rejected submissions never become jobs, so there is
// no rejected state — rejection is an error returned by Submit.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// JobSpec describes one factorization job.
type JobSpec struct {
	// Kind is the factorization: "lu" or "cholesky".
	Kind string `json:"kind"`
	// Scheme is the distribution scheme ("2dbc", "g2dbc", "sbc", "gcrm",
	// "sts"); empty defaults to g2dbc, the paper's any-P recommendation for
	// LU. Schemes that cannot serve the service's node count reject at
	// submission.
	Scheme string `json:"scheme,omitempty"`
	// Mt is the tile dimension of the mt×mt matrix. Must be positive and at
	// most the service's MaxMt.
	Mt int `json:"mt"`
	// B is the tile side. Zero means the service's configured tile size;
	// any other value must match it exactly (the memory budget is
	// calibrated to one tile shape).
	B int `json:"b,omitempty"`
	// P is the node count the client expects. Zero means the service's
	// cluster size; any other value must match it exactly — jobs always
	// span the whole shared cluster.
	P int `json:"p,omitempty"`
	// Seed seeds the deterministic test-matrix generator, so a job's result
	// is reproducible (and bit-identical to a solo runtime run of the same
	// seed).
	Seed int64 `json:"seed,omitempty"`
	// Priority orders admission, and only admission: among queued jobs higher
	// priorities start first, submission order breaking ties. Every run has
	// its own engines and ready queues, so two running jobs' tasks never meet
	// in one.
	Priority int `json:"priority,omitempty"`
	// Workers is the per-node worker count; zero means the service default.
	Workers int `json:"workers,omitempty"`
}

// Result is a finished job's output: exactly one of Dense (LU) or Chol
// (Cholesky) is set. The server holds it until it leaves the fetch window
// (fetchWindowResults results, fetchWindowBytes of factors; see
// Server.Result).
type Result struct {
	Dense *matrix.Dense
	Chol  *matrix.SymmetricLower
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	ID    JobID    `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	Error string   `json:"error,omitempty"`
	// QueueWaitSeconds is the time the job spent queued before starting
	// (final once running).
	QueueWaitSeconds float64 `json:"queueWaitSeconds"`
	// RunSeconds is the wall-clock of the run so far (final once terminal).
	RunSeconds float64 `json:"runSeconds"`
	// PeakTilesPerNode is the per-namespace working-set high-water mark of
	// the finished run (runtime.Report.PeakTilesPerNode: owned and received
	// tiles) — the leakage witness: a tenant's peak reflects only its own tiles, whatever
	// its neighbours did.
	PeakTilesPerNode []int `json:"peakTilesPerNode,omitempty"`
	// Messages and Bytes are the finished run's logical traffic totals.
	Messages int64 `json:"messages,omitempty"`
	Bytes    int64 `json:"bytes,omitempty"`
}

// Config sizes a Server.
type Config struct {
	// P is the shared cluster's node count. Every job spans all P nodes.
	P int
	// B is the service's tile side; every job uses it.
	B int
	// MaxConcurrent is the running-jobs slot budget (default 4).
	MaxConcurrent int
	// QueueCap bounds the admission queue; a submission that finds the
	// queue full is rejected descriptively (default 64). It bounds nothing
	// else: the fetched results kept are bounded by fetchWindowResults and
	// fetchWindowBytes (see Result).
	QueueCap int
	// MemBudgetBytes caps the summed matrix footprint (2·mt²·b²·8 bytes per
	// job: its matrix plus garbage room, see jobBytes) of running jobs;
	// queued jobs wait until they fit, and a job that could never fit is
	// rejected at submission. Zero means unlimited.
	MemBudgetBytes int64
	// MaxMt caps the accepted tile dimension (default 64).
	MaxMt int
	// Workers is the default per-node worker count for jobs that leave
	// Spec.Workers zero (default 1).
	Workers int
	// Broadcast selects the shared cluster's transport.
	Broadcast cluster.BroadcastMode
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxMt <= 0 {
		c.MaxMt = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// job is the server-side record of one submission. A done job holds its
// result and report until the fetch window drops them (see Result); the
// counts its Status reports are copied out of the report when it finishes,
// so they outlive the drop.
type job struct {
	id       JobID
	spec     JobSpec
	state    JobState
	err      error
	result   *Result // nil once the window dropped it
	report   *runtime.Report
	fetched  bool // Result has returned the factors at least once
	submit   time.Time
	started  time.Time
	finished time.Time
	seq      int64 // FIFO tie-break within one priority
	ctx      context.Context
	cancel   context.CancelCauseFunc
	done     chan struct{} // closed on any terminal state

	// The report's figures Status shows.
	peakTiles          []int
	messages, msgBytes int64
}

// jobQueue is the admission priority queue: higher Spec.Priority first,
// submission order within a priority.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].spec.Priority != q[b].spec.Priority {
		return q[a].spec.Priority > q[b].spec.Priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// Server is the multi-tenant factorization service.
type Server struct {
	cfg   Config
	cl    *cluster.Cluster
	cache *PatternCache

	mu       sync.Mutex
	jobs     map[JobID]*job
	queue    jobQueue
	nextID   JobID
	seq      int64
	running  int
	memInUse int64
	closed   bool
	wg       sync.WaitGroup

	// window holds the fetched results still kept (under mu), oldest first
	// fetch first, and windowBytes their resultBytes; see Result for what
	// it keeps. Unfetched results are held outside it.
	window      []*job
	windowBytes int64
	held        int   // done jobs whose result is still held, fetched or not
	heldBytes   int64 // their matrix bytes

	// service counters (under mu)
	submitted, completed, failed, canceled, rejected int64
	queueWait                                        time.Duration
}

// New creates a service over a fresh shared cluster.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.P <= 0 {
		return nil, fmt.Errorf("serve: invalid node count %d", cfg.P)
	}
	if cfg.B <= 0 {
		return nil, fmt.Errorf("serve: invalid tile size %d", cfg.B)
	}
	return &Server{
		cfg:   cfg,
		cl:    cluster.NewWithOptions(cfg.P, cluster.Options{Broadcast: cfg.Broadcast}),
		cache: &PatternCache{},
		jobs:  make(map[JobID]*job),
	}, nil
}

// Cluster exposes the shared substrate (tests assert that its in-flight
// payloads drain).
func (s *Server) Cluster() *cluster.Cluster { return s.cl }

// jobBytes estimates a job's resident matrix footprint as two matrices of
// mt²·b² float64s. One is the job's matrix: the tiles its engines update in
// place, which become the result without a copy. The other is garbage room:
// below the runtime's collect-first size (16 MiB) Go's default pacing lets
// the heap grow to twice its live size, so the matrix can sit beside dead
// factors of earlier jobs; from that size on a Factor call collects first,
// and the second matrix is slack.
func jobBytes(mt, b int) int64 {
	return 2 * int64(mt) * int64(mt) * int64(b) * int64(b) * 8
}

// validate normalizes spec and returns a descriptive rejection for anything
// the service can never run. It must never panic, whatever the spec says —
// FuzzSubmit holds it to that.
func (s *Server) validate(spec *JobSpec) error {
	switch spec.Kind {
	case KindLU, KindCholesky:
	case "":
		return fmt.Errorf("%w: missing kind (want %q or %q)", ErrRejected, KindLU, KindCholesky)
	default:
		return fmt.Errorf("%w: unknown kind %q (want %q or %q)", ErrRejected, spec.Kind, KindLU, KindCholesky)
	}
	if spec.Scheme == "" {
		spec.Scheme = "g2dbc"
	}
	spec.Scheme = strings.ToLower(spec.Scheme)
	if spec.Mt <= 0 {
		return fmt.Errorf("%w: mt = %d; need a positive tile dimension", ErrRejected, spec.Mt)
	}
	if spec.Mt > s.cfg.MaxMt {
		return fmt.Errorf("%w: mt = %d exceeds the service cap %d", ErrRejected, spec.Mt, s.cfg.MaxMt)
	}
	if spec.B == 0 {
		spec.B = s.cfg.B
	}
	if spec.B != s.cfg.B {
		return fmt.Errorf("%w: tile size b = %d mismatches the service tile size %d", ErrRejected, spec.B, s.cfg.B)
	}
	if spec.P == 0 {
		spec.P = s.cfg.P
	}
	if spec.P != s.cfg.P {
		return fmt.Errorf("%w: p = %d mismatches the shared cluster's %d nodes (jobs span the whole cluster)",
			ErrRejected, spec.P, s.cfg.P)
	}
	if spec.Workers == 0 {
		spec.Workers = s.cfg.Workers
	}
	if spec.Workers < 0 || spec.Workers > maxWorkers {
		return fmt.Errorf("%w: workers = %d outside 1..%d", ErrRejected, spec.Workers, maxWorkers)
	}
	if s.cfg.MemBudgetBytes > 0 {
		if est := jobBytes(spec.Mt, spec.B); est > s.cfg.MemBudgetBytes {
			return fmt.Errorf("%w: budget exceeded: job needs ~%d bytes, the service memory budget is %d",
				ErrRejected, est, s.cfg.MemBudgetBytes)
		}
	}
	// Construct (or hit the cache for) the distribution now: an unknown
	// scheme, or one that cannot serve this node count (SBC/STS accept only
	// their families), must reject at submission, not fail mid-queue.
	if _, err := s.cache.Dist(spec.Scheme, spec.P); err != nil {
		return fmt.Errorf("%w: scheme %q unusable for P=%d: %v", ErrRejected, spec.Scheme, spec.P, err)
	}
	return nil
}

// Submit validates spec and enqueues the job, returning its id. Rejections
// (wrapped ErrRejected) are immediate and descriptive: malformed specs,
// shapes over the memory budget, unknown schemes, and a full admission queue
// all name their reason. An accepted job runs as soon as a slot and its
// memory fit, in priority order.
func (s *Server) Submit(spec JobSpec) (JobID, error) {
	if err := s.validate(&spec); err != nil {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.rejected++
		return 0, fmt.Errorf("%w: the service is shutting down", ErrRejected)
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.rejected++
		return 0, fmt.Errorf("%w: admission queue full (%d queued, cap %d); retry later",
			ErrRejected, len(s.queue), s.cfg.QueueCap)
	}
	s.nextID++
	s.seq++
	s.submitted++
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{
		id:     s.nextID,
		spec:   spec,
		state:  StateQueued,
		submit: time.Now(),
		seq:    s.seq,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	heap.Push(&s.queue, j)
	s.schedule()
	return j.id, nil
}

// schedule starts every queued job that fits the slot and memory budgets,
// in priority order with backfilling: a large job waiting for memory does
// not block a smaller lower-priority one that fits now. Called under mu.
func (s *Server) schedule() {
	if s.closed {
		return
	}
	var skipped []*job
	for s.running < s.cfg.MaxConcurrent && len(s.queue) > 0 {
		j := heap.Pop(&s.queue).(*job)
		need := jobBytes(j.spec.Mt, j.spec.B)
		if s.cfg.MemBudgetBytes > 0 && s.memInUse+need > s.cfg.MemBudgetBytes {
			skipped = append(skipped, j)
			continue
		}
		s.running++
		s.memInUse += need
		j.state = StateRunning
		j.started = time.Now()
		s.queueWait += j.started.Sub(j.submit)
		s.wg.Add(1)
		go s.runJob(j, need)
	}
	for _, j := range skipped {
		heap.Push(&s.queue, j)
	}
}

// runJob executes one admitted job on the shared cluster and re-schedules
// the queue when its slot frees up.
func (s *Server) runJob(j *job, memReserved int64) {
	defer s.wg.Done()
	res, rep, err := s.execute(j)

	s.mu.Lock()
	j.finished = time.Now()
	if rep != nil {
		j.peakTiles = rep.PeakTilesPerNode
		j.messages, j.msgBytes = rep.Stats.TotalMessages(), rep.Stats.TotalBytes()
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.result, j.report = res, rep
		s.held++
		s.heldBytes += resultBytes(j.spec)
		s.completed++
	case errors.Is(err, runtime.ErrCanceled):
		j.state = StateCanceled
		j.err = err
		s.canceled++
	default:
		j.state = StateFailed
		j.err = err
		s.failed++
	}
	s.running--
	s.memInUse -= memReserved
	s.schedule()
	s.mu.Unlock()

	j.cancel(nil)
	close(j.done)
}

// execute runs the factorization itself: the job's shape under the cached
// distribution on the shared cluster — the run takes and drops a namespace of
// its own, and its plan comes from the runtime's plan cache — under the job's
// cancellation context.
func (s *Server) execute(j *job) (*Result, *runtime.Report, error) {
	spec := j.spec
	d, err := s.cache.Dist(spec.Scheme, spec.P)
	if err != nil {
		return nil, nil, err
	}
	opt := runtime.Options{
		Workers: spec.Workers,
		Cluster: s.cl,
		Context: j.ctx,
	}
	switch spec.Kind {
	case KindLU:
		gen := runtime.GenDiagDominant(spec.Mt, spec.B, spec.Seed)
		out, rep, err := factorLU(spec.Mt, spec.B, d, gen, opt)
		if err != nil {
			return nil, nil, err
		}
		return &Result{Dense: out}, rep, nil
	case KindCholesky:
		gen := runtime.GenSPD(spec.Mt, spec.B, spec.Seed)
		out, rep, err := runtime.FactorCholesky(spec.Mt, spec.B, d, gen, opt)
		if err != nil {
			return nil, nil, err
		}
		return &Result{Chol: out}, rep, nil
	default:
		return nil, nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
}

// factorLU is the LU a job runs: runtime.FactorLU, which a test replaces to
// fail one tenant mid-run.
var factorLU = runtime.FactorLU

// get looks a job up under mu.
func (s *Server) get(id JobID) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: job %d", ErrNotFound, id)
	}
	return j, nil
}

// Status returns a snapshot of the job.
func (s *Server) Status(id JobID) (Status, error) {
	j, err := s.get(id)
	if err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{ID: j.id, State: j.state, Spec: j.spec}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch j.state {
	case StateQueued:
		st.QueueWaitSeconds = time.Since(j.submit).Seconds()
	case StateRunning:
		st.QueueWaitSeconds = j.started.Sub(j.submit).Seconds()
		st.RunSeconds = time.Since(j.started).Seconds()
	default:
		if !j.started.IsZero() {
			st.QueueWaitSeconds = j.started.Sub(j.submit).Seconds()
			st.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	st.PeakTilesPerNode = append([]int(nil), j.peakTiles...)
	st.Messages, st.Bytes = j.messages, j.msgBytes
	return st, nil
}

// Result returns a finished job's factors and report. Jobs that are not done
// (still queued/running, failed, or cancelled) return an error saying so.
//
// A done job holds its factors until they are first fetched. From then on
// the server keeps at most fetchWindowResults fetched results holding at most
// fetchWindowBytes of factors between them, and drops the ones first fetched
// longest ago to stay within both; the result fetched last is kept whatever
// its size, so a client can fetch it again at once. Fetching a result again
// neither counts it twice nor moves it in line. Result on a dropped job
// returns an error wrapping ErrExpired, while its Status stays.
func (s *Server) Result(id JobID) (*Result, *runtime.Report, error) {
	j, err := s.get(id)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateDone:
		if j.result == nil {
			return nil, nil, fmt.Errorf("serve: job %d: %w: the server keeps the last %d fetched results "+
				"within %d bytes of factors, the latest whatever its size", id, ErrExpired, fetchWindowResults, fetchWindowBytes)
		}
		if !j.fetched {
			j.fetched = true
			s.window = append(s.window, j)
			s.windowBytes += resultBytes(j.spec)
			s.trimWindow()
		}
		return j.result, j.report, nil
	case StateFailed:
		return nil, nil, fmt.Errorf("serve: job %d failed: %w", id, j.err)
	case StateCanceled:
		return nil, nil, fmt.Errorf("serve: job %d was canceled", id)
	default:
		return nil, nil, fmt.Errorf("serve: job %d is %s; result not ready", id, j.state)
	}
}

// trimWindow drops the results first fetched longest ago until the window
// holds at most fetchWindowResults of them and fetchWindowBytes of factors,
// keeping the latest whatever its size. Called under mu.
func (s *Server) trimWindow() {
	for len(s.window) > 1 && (len(s.window) > fetchWindowResults || s.windowBytes > fetchWindowBytes) {
		old := s.window[0]
		s.window[0] = nil
		s.window = s.window[1:]
		n := resultBytes(old.spec)
		s.windowBytes -= n
		s.held--
		s.heldBytes -= n
		old.result, old.report = nil, nil
	}
}

// resultBytes is the matrix footprint of a done job's factors: mt² tiles of
// b² float64s for LU, the mt(mt+1)/2 lower tiles for Cholesky.
func resultBytes(spec JobSpec) int64 {
	mt := int64(spec.Mt)
	tiles := mt * mt
	if spec.Kind == KindCholesky {
		tiles = mt * (mt + 1) / 2
	}
	return tiles * int64(spec.B) * int64(spec.B) * 8
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its terminal error: nil for done, the failure for failed, a
// cancellation error for canceled.
func (s *Server) Wait(ctx context.Context, id JobID) error {
	j, err := s.get(id)
	if err != nil {
		return err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.err
}

// Cancel aborts the job: a queued job leaves the queue immediately; a
// running job's namespace plane is poisoned through the runtime's
// cancellation seam, its engines wind down, and its in-flight payloads are
// released — no other tenant notices. Terminal jobs return an
// error naming their state.
func (s *Server) Cancel(id JobID) error {
	j, err := s.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				heap.Remove(&s.queue, i)
				break
			}
		}
		j.state = StateCanceled
		j.err = runtime.ErrCanceled
		j.finished = time.Now()
		s.canceled++
		s.mu.Unlock()
		j.cancel(context.Canceled)
		close(j.done)
		return nil
	case StateRunning:
		s.mu.Unlock()
		j.cancel(context.Canceled) // runJob observes ErrCanceled and finishes the bookkeeping
		return nil
	default:
		s.mu.Unlock()
		return fmt.Errorf("serve: job %d already %s", id, j.state)
	}
}

// ServiceStats is the service-level counter snapshot of /stats.
type ServiceStats struct {
	P              int     `json:"p"`
	B              int     `json:"b"`
	Queued         int     `json:"queued"`
	Running        int     `json:"running"`
	Submitted      int64   `json:"submitted"`
	Completed      int64   `json:"completed"`
	Failed         int64   `json:"failed"`
	Canceled       int64   `json:"canceled"`
	Rejected       int64   `json:"rejected"`
	QueueWaitSecs  float64 `json:"queueWaitSeconds"` // summed over started jobs
	MemInUseBytes  int64   `json:"memInUseBytes"`
	MemBudgetBytes int64   `json:"memBudgetBytes"`
	CacheHits      int64   `json:"cacheHits"` // distribution lookups (PatternCache), not plans
	CacheMisses    int64   `json:"cacheMisses"`
	PoolHeld       int64   `json:"poolHeldTiles"` // payloads in flight, clones and final tiles sent by reference
	// ResultsHeld counts the done jobs whose factors the server still holds:
	// the unfetched ones and the window of fetched ones. ResultBytesHeld is
	// the bytes of their factors (resultBytes), not of their reports or
	// records.
	ResultsHeld     int   `json:"resultsHeld"`
	ResultBytesHeld int64 `json:"resultBytesHeld"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServiceStats{
		P:               s.cfg.P,
		B:               s.cfg.B,
		Queued:          len(s.queue),
		Running:         s.running,
		Submitted:       s.submitted,
		Completed:       s.completed,
		Failed:          s.failed,
		Canceled:        s.canceled,
		Rejected:        s.rejected,
		QueueWaitSecs:   s.queueWait.Seconds(),
		MemInUseBytes:   s.memInUse,
		MemBudgetBytes:  s.cfg.MemBudgetBytes,
		CacheHits:       s.cache.Hits(),
		CacheMisses:     s.cache.Misses(),
		PoolHeld:        s.cl.PoolOutstanding(),
		ResultsHeld:     s.held,
		ResultBytesHeld: s.heldBytes,
	}
}

// Summary renders the simfact-style one-screen text report of the service.
func (s *Server) Summary() string {
	st := s.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "factserve: P=%d b=%d broadcast=%s\n", st.P, st.B, s.cl.Broadcast())
	fmt.Fprintf(&b, "  jobs:   %d queued, %d running | %d done, %d failed, %d canceled, %d rejected (of %d submitted)\n",
		st.Queued, st.Running, st.Completed, st.Failed, st.Canceled, st.Rejected, st.Submitted+st.Rejected)
	started := st.Completed + st.Failed + st.Canceled + int64(st.Running)
	if started > 0 {
		fmt.Fprintf(&b, "  queue:  %.1f ms mean wait over %d started jobs\n",
			1e3*st.QueueWaitSecs/float64(started), started)
	}
	if st.MemBudgetBytes > 0 {
		fmt.Fprintf(&b, "  memory: %d / %d bytes reserved\n", st.MemInUseBytes, st.MemBudgetBytes)
	}
	fmt.Fprintf(&b, "  cache:  %d hits, %d misses | pool: %d tiles in flight\n",
		st.CacheHits, st.CacheMisses, st.PoolHeld)
	fmt.Fprintf(&b, "  held:   %d results, %d bytes (unfetched + the last %d fetched within %d bytes)\n",
		st.ResultsHeld, st.ResultBytesHeld, fetchWindowResults, fetchWindowBytes)
	return b.String()
}

// Jobs lists every known job id in submission order (tests and the HTTP
// index use it).
func (s *Server) Jobs() []JobID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]JobID, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// Close stops admission, cancels every queued and running job, waits for
// the runners to drain, and tears the shared cluster down.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	queued := append([]*job(nil), s.queue...)
	s.queue = nil
	var runningJobs []*job
	for _, j := range s.jobs {
		if j.state == StateRunning {
			runningJobs = append(runningJobs, j)
		}
	}
	for _, j := range queued {
		j.state = StateCanceled
		j.err = runtime.ErrCanceled
		j.finished = time.Now()
		s.canceled++
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.cancel(context.Canceled)
		close(j.done)
	}
	for _, j := range runningJobs {
		j.cancel(context.Canceled)
	}
	s.wg.Wait()
	s.cl.Close()
}
