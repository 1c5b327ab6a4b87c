package main

import (
	"fmt"
	"time"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

// Goldens of the two sim-paper simulations on simulate.PaperMachine with
// b=500 and the GCR&M(23) pattern of gcrmSearch: makespans in seconds and
// logical message counts. The simulator is deterministic, so a run that does
// not reproduce them exactly has changed the model, not the speed.
const (
	goldenMakespanLU   = 3.888064666666993
	goldenMakespanChol = 2.2683042499999617
	goldenMessagesLU   = 38679
	goldenMessagesChol = 25729

	// The -smoke sizes (mt=20).
	smokeMakespanLU   = 0.2525036666666658
	smokeMakespanChol = 0.19760558333333292
	smokeMessagesLU   = 1545
	smokeMessagesChol = 971
)

// simRun is a set-up sim-paper workload.
type simRun struct {
	shape   *simShape
	machine simulate.Machine
	dLU     dist.Distribution
	dChol   dist.Distribution
	searchS float64 // the GCR&M search
	buildS  float64 // both distributions
}

// simOutcome is what one iteration produced.
type simOutcome struct {
	lu, chol     *simulate.Result
	tasks        int
	buildS, simS float64
}

func setupSim(s *simShape) (*simRun, error) {
	r := &simRun{shape: s, machine: simulate.PaperMachine()}
	start := time.Now()
	r.dLU = dist.NewG2DBC(s.p)
	searchStart := time.Now()
	d, err := core.New(core.GCRM, s.p, core.Options{GCRMSearch: gcrmSearch})
	if err != nil {
		return nil, err
	}
	r.dChol = d
	r.searchS, r.buildS = time.Since(searchStart).Seconds(), time.Since(start).Seconds()
	_, err = r.once()
	return r, err
}

// once builds both graphs and simulates them, as regenerating one point of a
// paper figure does, and checks the results against the goldens.
func (r *simRun) once() (simOutcome, error) {
	s := r.shape
	var o simOutcome
	start := time.Now()
	lu, chol := dag.NewLU(s.mt), dag.NewCholesky(s.mt)
	o.buildS = time.Since(start).Seconds()
	o.tasks = lu.NumTasks() + chol.NumTasks()
	start = time.Now()
	var err error
	if o.lu, err = simulate.Run(lu, s.b, r.dLU, r.machine, simulate.Options{}); err != nil {
		return o, err
	}
	if o.chol, err = simulate.Run(chol, s.b, r.dChol, r.machine, simulate.Options{}); err != nil {
		return o, err
	}
	o.simS = time.Since(start).Seconds()
	if o.lu.Makespan != s.makespanLU || o.lu.Messages != s.messagesLU ||
		o.chol.Makespan != s.makespanChol || o.chol.Messages != s.messagesChol {
		return o, fmt.Errorf("simulation gave LU %v s, %d messages and Cholesky %v s, %d messages; goldens are %v, %d and %v, %d",
			o.lu.Makespan, o.lu.Messages, o.chol.Makespan, o.chol.Messages,
			s.makespanLU, s.messagesLU, s.makespanChol, s.messagesChol)
	}
	return o, nil
}

func (r *simRun) iterate(t *tally) { r.timed(t) }

// timed runs, checks and counts one iteration.
func (r *simRun) timed(t *tally) (simOutcome, bool) {
	start := time.Now()
	o, err := r.once()
	lat := time.Since(start).Seconds()
	t.attempted++
	if err != nil {
		t.fail(err)
		return o, false
	}
	t.latMs = append(t.latMs, lat*1e3)
	t.wallS += lat
	return o, true
}

// traced times the same iterations with a span around each, splits graph
// construction from simulation, and adds the structural probes of the layers
// the simulator leans on.
func (r *simRun) traced(t *tally, tr *tracer, iterations int) map[string]float64 {
	s := r.shape
	v := map[string]float64{}
	lu, chol := dag.NewLU(s.mt), dag.NewCholesky(s.mt)
	probeDag(lu, v)
	probeDist(r.dChol, s.mt, v)
	probeSched(lu, v)
	v["dist.build_s"] = r.buildS
	v["gcrm.search_s"] = r.searchS
	v["pattern.cost_T"] = patternCost(r.dChol, false)
	v["dag.tasks"] = float64(lu.NumTasks() + chol.NumTasks())
	v["dag.critical_path_flops"] = dag.CriticalPathFlops(lu, s.b)

	var walls, builds, sims []float64
	var last simOutcome
	cpu0 := cpuSeconds()
	for iter := 0; iter < iterations; iter++ {
		id := tr.begin("simulate.pair", 0, iter)
		o, ok := r.timed(t)
		walls = append(walls, tr.end(id))
		if !ok {
			return v
		}
		builds = append(builds, o.buildS)
		sims = append(sims, o.simS)
		last = o
	}
	v["harness.cpu_s_per_op"] = (cpuSeconds() - cpu0) / float64(len(sims))
	v["dag.build_s"] = median(builds)
	v["simulate.ns_per_task"] = median(sims) * 1e9 / float64(last.tasks)
	v["simulate.tasks_per_s"] = float64(last.tasks) / median(walls)
	v["simulate.makespan_lu_s"] = last.lu.Makespan
	v["simulate.makespan_chol_s"] = last.chol.Makespan
	v["simulate.messages"] = float64(last.lu.Messages + last.chol.Messages)
	return v
}
