package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one end-to-end comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved" // the recorded spread exceeds the bound
)

// row compares one metric of one workload between two suite results.
type row struct {
	workload, metric, unit string
	endToEnd               bool
	old, new               float64
	change                 float64 // (new − old) / old
	bound                  float64
	spread                 float64 // the wider of the two recorded spreads
	verdict                string
	note                   string // failed_share only: the counts behind the shares
}

// judge gives the verdict for an end-to-end metric: a change counts only
// beyond the metric's bound, and only when both sides' run-to-run spread is
// inside that bound.
func judge(m metricSpec, old, new series) row {
	r := row{metric: m.name, unit: old.Unit, endToEnd: true, old: old.Median, new: new.Median,
		bound: m.bound, spread: math.Max(old.Spread, new.Spread)}
	if old.Median != 0 {
		r.change = (new.Median - old.Median) / math.Abs(old.Median)
	}
	worsening := r.change
	if m.better == "higher" {
		worsening = -r.change
	}
	switch {
	case r.spread > m.bound:
		r.verdict = verdictUnresolved
	case worsening > m.bound:
		r.verdict = verdictWorse
	case worsening < -m.bound:
		r.verdict = verdictBetter
	default:
		r.verdict = verdictWithin
	}
	return r
}

// failedShare is a result's failed operations over those it attempted.
func (w *workloadResult) failedShare() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// judgeFailures gives the failed_share row of a workload. Its bound is
// absolute: any failed operation on the new side is worse, and so is a pass
// that reported no metrics, because a run that fails drops out of every
// median without a trace there.
func judgeFailures(old, new *workloadResult, newPasses int) row {
	r := row{workload: old.Name, metric: "failed_share", unit: "fraction", endToEnd: true,
		old: old.failedShare(), new: new.failedShare(), verdict: verdictWithin}
	reported := newPasses
	for _, m := range endToEnd {
		reported = min(reported, len(new.EndToEnd[m.name].Runs))
	}
	r.note = fmt.Sprintf("%d of %d operations failed, %d of %d passes reported", new.Failed, new.Attempted, reported, newPasses)
	if new.Failed > 0 || reported < newPasses {
		r.verdict = verdictWorse
	}
	return r
}

// compareSuites lines up two results: for each workload its end-to-end rows
// with verdicts, failed_share among them, then its per-layer rows without.
func compareSuites(old, new *suiteResult) []row {
	var rows []row
	for _, ow := range old.Workloads {
		for _, nw := range new.Workloads {
			if nw.Name != ow.Name {
				continue
			}
			for _, m := range endToEnd {
				r := judge(m, ow.EndToEnd[m.name], nw.EndToEnd[m.name])
				r.workload = ow.Name
				rows = append(rows, r)
			}
			rows = append(rows, judgeFailures(&ow, &nw, new.Passes))
			for _, m := range perLayer {
				o, n := ow.PerLayer[m.name], nw.PerLayer[m.name]
				if o.Median == 0 && n.Median == 0 {
					continue
				}
				r := row{workload: ow.Name, metric: m.name, unit: o.Unit, old: o.Median, new: n.Median}
				if o.Median != 0 {
					r.change = (n.Median - o.Median) / math.Abs(o.Median)
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// printRows prints one line per row; every relative change names its base.
func printRows(w io.Writer, rows []row) {
	last := ""
	for _, r := range rows {
		if r.workload != last {
			fmt.Fprintf(w, "\n%s\n", r.workload)
			last = r.workload
		}
		if r.note != "" {
			fmt.Fprintf(w, "  %-32s %12.6g -> %12.6g %-8s %s  bound 0, absolute  %s\n",
				r.metric, r.old, r.new, r.unit, r.note, r.verdict)
		} else if r.endToEnd {
			fmt.Fprintf(w, "  %-32s %12.6g -> %12.6g %-8s %+6.1f%% of %.6g  bound %4.0f%%  spread %4.1f%%  %s\n",
				r.metric, r.old, r.new, r.unit, r.change*100, r.old, r.bound*100, r.spread*100, r.verdict)
		} else {
			fmt.Fprintf(w, "    %-30s %12.6g -> %12.6g %-8s %+6.1f%% of %.6g\n",
				r.metric, r.old, r.new, r.unit, r.change*100, r.old)
		}
	}
}

// compareFiles is -compare: exit status 1 when any end-to-end metric is
// worse, 0 otherwise.
func compareFiles(oldPath, newPath string, w io.Writer) int {
	var sets [2]*suiteResult
	for i, path := range []string{oldPath, newPath} {
		res, err := loadSuite(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = res
	}
	if sets[0].Passes != sets[1].Passes || sets[0].Seconds != sets[1].Seconds {
		fmt.Fprintf(os.Stderr, "bench: the results did different amounts of work: %d passes of %g s against %d passes of %g s\n",
			sets[0].Passes, sets[0].Seconds, sets[1].Passes, sets[1].Seconds)
		return 2
	}
	rows := compareSuites(sets[0], sets[1])
	printRows(w, rows)
	for _, r := range rows {
		if r.verdict == verdictWorse {
			return 1
		}
	}
	return 0
}
