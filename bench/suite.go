package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	gort "runtime"
	"strconv"
)

// passes is how many untraced round-robin passes a suite makes over the
// five workloads; the smoke suite makes one.
const passes = 3

// suiteConfig is one run of the whole benchmark.
type suiteConfig struct {
	seed    int64
	seconds float64
	smoke   bool
}

// series is one metric of one workload over the suite's passes.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile range over the median
	Runs   []float64 `json:"runs"`
}

// workloadResult gathers a workload's runs.
type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// suiteResult is what -out writes and -compare reads.
type suiteResult struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Passes     int              `json:"passes"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

// runSuite runs every workload in its own child process, so peak_rss_mb is
// per workload, round-robin over the passes — A B C D E, A B C D E, … — so
// that minute-scale drift of a shared box spreads over all of them, then one
// traced child per workload.
func runSuite(sc suiteConfig, log io.Writer) (*suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &suiteResult{Seed: sc.seed, Seconds: sc.seconds, Passes: passes, GOMAXPROCS: gort.GOMAXPROCS(0)}
	if sc.smoke {
		res.Passes = 1
	}
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, workloadResult{Name: w.name,
			EndToEnd: map[string]series{}, PerLayer: map[string]series{}})
	}
	child := func(wr *workloadResult, traced int) error {
		args := []string{"-workload", wr.Name, "-seed", strconv.FormatInt(sc.seed, 10),
			"-seconds", strconv.FormatFloat(sc.seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced)}
		if sc.smoke {
			args = append(args, "-smoke")
		}
		fmt.Fprintf(log, "# %s trace=%d\n", wr.Name, traced)
		var stdout bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		r, err := lastLineResult(stdout.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %v (child: %v)\n%s", wr.Name, err, runErr, stdout.Bytes())
		}
		if !r.Correct {
			fmt.Fprintf(log, "%s", stdout.Bytes()) // the child's own account of what failed
		}
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		into := wr.EndToEnd
		if traced != 0 {
			into = wr.PerLayer
		}
		for name, m := range r.Metrics {
			s := into[name]
			s.Unit = m.Unit
			s.Runs = append(s.Runs, m.Value)
			s.Median, s.Spread = median(s.Runs), iqrShare(s.Runs)
			into[name] = s
		}
		return nil
	}
	for pass := 0; pass < res.Passes; pass++ {
		for i := range res.Workloads {
			if err := child(&res.Workloads[i], 0); err != nil {
				return nil, err
			}
		}
	}
	for i := range res.Workloads {
		if err := child(&res.Workloads[i], 1); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// lastLineResult parses the protocol's result line from a run's output.
func lastLineResult(out []byte) (result, error) {
	var r result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}

func (r *suiteResult) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// print lists every metric of every workload by name with its unit.
func (r *suiteResult) print(w io.Writer) {
	fmt.Fprintf(w, "\nseed %d, %g s per run, %d passes, GOMAXPROCS %d\n", r.Seed, r.Seconds, r.Passes, r.GOMAXPROCS)
	for _, wl := range r.Workloads {
		share := 0.0
		if wl.Attempted > 0 {
			share = float64(wl.Failed) / float64(wl.Attempted)
		}
		fmt.Fprintf(w, "\n%s: %d operations attempted, %d failed (failed_share %g)\n", wl.Name, wl.Attempted, wl.Failed, share)
		for _, m := range endToEnd {
			s := wl.EndToEnd[m.name]
			fmt.Fprintf(w, "  %-34s %14.6g %-8s spread %5.1f%% of median over %d runs, bound %g\n",
				m.name, s.Median, s.Unit, s.Spread*100, len(s.Runs), m.bound)
		}
		for _, m := range perLayer {
			if s, ok := wl.PerLayer[m.name]; ok && s.Median != 0 {
				fmt.Fprintf(w, "    %-32s %14.6g %s\n", m.name, s.Median, s.Unit)
			}
		}
	}
}

func (r *suiteResult) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// selfCheck runs the suite twice and fails unless every end-to-end metric of
// the two sets agrees within its own bound. A pair whose spread over a
// suite's passes exceeds the bound is unresolved, not agreed, and fails too.
func selfCheck(sc suiteConfig, log io.Writer) int {
	var sets [2]*suiteResult
	for i := range sets {
		res, err := runSuite(sc, log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sets[i] = res
	}
	rows := compareSuites(sets[0], sets[1])
	printRows(log, rows)
	status := 0
	for _, row := range rows {
		if row.endToEnd && row.verdict != verdictWithin {
			fmt.Fprintf(log, "selfcheck: %s %s is %s between two runs of the same code (%+.1f%% of %.6g, spread %.1f%%, bound %g)\n",
				row.workload, row.metric, row.verdict, row.change*100, row.old, row.spread*100, row.bound)
			status = 1
		}
	}
	if sets[0].failed() > 0 {
		fmt.Fprintln(log, "selfcheck: operations failed in the first suite")
		status = 1
	}
	if status == 0 {
		fmt.Fprintln(log, "selfcheck: every end-to-end metric agrees within its bound")
	}
	return status
}
