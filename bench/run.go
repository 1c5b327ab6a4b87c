package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	gort "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupChildren is how many fresh processes a run starts to clock set-up.
// Each one is cold: whatever a set-up leaves behind in its process — a plan
// or pattern cache, warmed pools — is gone before the next, so work that a
// later change moves into set-up cannot hide behind an earlier repeat.
const setupChildren = 7

// readyLine is what a set-up child prints once its first timed operation
// could start.
const readyLine = "ready"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates the timed operations of a run. An operation is attempted
// once and fails if it errors or any check on its output misses.
type tally struct {
	latMs     []float64 // one per operation
	wallS     float64   // wall-clock the operations took, overlapped ones counted once
	attempted int
	failed    int
	firstErr  error
}

// fail counts a failed operation and keeps the first reason for the report.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// instance is a set-up workload. iterate runs and verifies one timed unit of
// work — a factorization, a serve round, a pair of simulations — untraced.
// traced does the per-layer pass over the given number of iterations and
// returns its metrics; it also counts its operations into the tally.
type instance interface {
	iterate(t *tally)
	traced(t *tally, tr *tracer, iterations int) map[string]float64
}

// setup builds the workload from the seed and runs and verifies one warm-up
// operation; an error means the warm-up failed its checks.
func setup(w *workload, seed int64) (instance, error) {
	switch {
	case w.factor != nil:
		return setupFactor(w.factor, seed)
	case w.serve != nil:
		return setupServe(w.serve, seed)
	default:
		return setupSim(w.sim)
	}
}

// runConfig is one invocation of a single workload.
type runConfig struct {
	w        *workload
	seed     int64
	seconds  float64
	smoke    bool
	traced   bool
	traceOut string
}

// setupChild is the whole life of a set-up child: set up, say so, exit.
func setupChild(cfg runConfig, out io.Writer) int {
	if _, err := setup(cfg.w, cfg.seed); err != nil {
		fmt.Fprintln(os.Stderr, "bench: set-up:", err)
		return 1
	}
	fmt.Fprintln(out, readyLine)
	return 0
}

// clockSetup starts a fresh process of this command that only sets the
// workload up, and returns the wall-clock from starting it to its ready line:
// process start, distribution (GCR&M search), graphs or server, one warm-up
// operation and its verification.
func clockSetup(cfg runConfig) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-workload", cfg.w.name, "-seed", strconv.FormatInt(cfg.seed, 10), "-setup-child"}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	took := time.Since(start).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	if strings.TrimSpace(line) != readyLine {
		return 0, fmt.Errorf("set-up child said %q, not %q (%v)", line, readyLine, readErr)
	}
	return took, nil
}

// run executes one workload once under the driver's protocol and returns its
// result; human-readable metric lines go to log.
func run(cfg runConfig, log io.Writer) result {
	res := result{Metrics: map[string]metric{}}
	var t tally
	ops := cfg.w.opsFor(cfg.seconds)
	speed := newSpeedometer()

	// setup_s: the median over cold children, two calibration bursts before
	// each. The traced pass reports no setup_s and starts none.
	var setups []float64
	for n := 0; n < setupChildren && !cfg.traced; n++ {
		speed.burst()
		speed.burst()
		t.attempted++
		s, err := clockSetup(cfg)
		if err != nil {
			t.fail(err)
			return finish(cfg, res, &t, log)
		}
		setups = append(setups, s)
	}

	// This process sets up once, so its peak memory is that of one set-up
	// and the timed operations.
	t.attempted++
	inst, err := setup(cfg.w, cfg.seed)
	if err != nil {
		t.fail(fmt.Errorf("set-up: %w", err))
		return finish(cfg, res, &t, log)
	}

	if cfg.traced {
		tr := newTracer()
		values := inst.traced(&t, tr, max(2, ops/3))
		if err := tr.write(cfg.traceOut); err != nil {
			t.fail(err)
		}
		// Five bursts back to back: the traced pass only records the factor.
		for i := 0; i < 5; i++ {
			speed.burst()
		}
		values["harness.speed_factor"] = speed.factor()
		values["harness.samples"] = float64(len(t.latMs))
		values["harness.gomaxprocs"] = float64(gort.GOMAXPROCS(0))
		values["harness.failed_share"] = float64(t.failed) / float64(t.attempted)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		return finish(cfg, res, &t, log)
	}

	setupFactor := speed.factor()

	gort.GC()
	speed.reset()
	cpu0 := cpuSeconds()
	for i := 0; i < ops; i++ {
		speed.tick()
		inst.iterate(&t)
		if t.failed > 0 {
			return finish(cfg, res, &t, log)
		}
	}
	cpu := cpuSeconds() - cpu0 - speed.cpuS
	factor := speed.factor()

	// Every timing is divided by the machine's slowness over its phase (see
	// calib.go); the raw values are printed below for the record.
	n := float64(len(t.latMs))
	p50, tail := median(t.latMs), percentile(t.latMs, cfg.w.tailPct)
	values := map[string]float64{
		"setup_s":      median(setups) / setupFactor,
		"peak_rss_mb":  peakRSSMB(),
		"op_p50_ms":    p50 / factor,
		"op_tail_ms":   tail / factor,
		"ops_per_s":    n / t.wallS * factor,
		"cpu_s_per_op": cpu / n / factor,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	fmt.Fprintf(log, "machine ran %.3f× the reference time (%d bursts, median %.2f ms against %.2f ms); set-up phase %.3f×\n",
		factor, len(speed.bursts), median(speed.bursts), calibRefMs, setupFactor)
	fmt.Fprintf(log, "raw, before dividing by that: setup_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, ops_per_s %.6g, cpu_s_per_op %.6g\n",
		median(setups), p50, tail, n/t.wallS, cpu/n)
	return finish(cfg, res, &t, log)
}

// finish fills in the operation counts and prints the metrics by name.
func finish(cfg runConfig, res result, t *tally, log io.Writer) result {
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	if t.firstErr != nil {
		fmt.Fprintf(log, "FAILED %s: %v\n", cfg.w.name, t.firstErr)
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	fmt.Fprintf(log, "workload %s seed %d: %d samples, %d attempted, %d failed (op_tail_ms is p%g)\n",
		cfg.w.name, cfg.seed, len(t.latMs), t.attempted, t.failed, cfg.w.tailPct)
	for _, m := range specs {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(log, "  %-34s %16.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	return res
}

// printResult writes the protocol's last line.
func printResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark: VmHWM from
// /proc where there is one, else getrusage's maximum.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:  123456 kB"
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
