// Command simfact rewrites the committed results of the paper's evaluation,
// and traces single runs of the simulator or of the real runtime.
//
// With -regen, it renders one file of results/ (or all of them) from its
// row of experiments.Artifacts, with the fixed configuration that row
// records; run it from the repository root.
//
//	simfact -regen fig5.txt        # one file
//	simfact -regen all             # every file (2–4 min on 2 vCPUs)
//
// The -gantt mode traces one run: simulated by default, or a real
// numeric execution on the virtual cluster with -real (use a small -n).
//
//	simfact -gantt out -p 23 -n 25000            # simulated trace
//	simfact -gantt out -real -p 23 -n 512 -tb 16 # wall-clock trace
//
// Both gantt modes accept -tree to switch the broadcast transport from the
// paper's flat point-to-point fan-out to a binomial tree (the root sends
// ⌈log₂(k+1)⌉ hops and recipients relay onward); the run reports wire hops
// and relay counts alongside the mode-independent logical message counts.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/experiments"
	"anybc/internal/runtime"
	"anybc/internal/simulate"
	"anybc/internal/trace"
)

func main() {
	var (
		regen  = flag.String("regen", "", "rewrite results/FILE, or every file for \"all\", from its experiments.Artifacts row (run from the repository root)")
		gantt  = flag.String("gantt", "", "trace one run and write <prefix>-gantt.csv and <prefix>-messages.csv")
		p      = flag.Int("p", 23, "gantt mode: node count")
		n      = flag.Int("n", 25000, "gantt mode: matrix size")
		scheme = flag.String("scheme", "g2dbc", "gantt mode: distribution scheme")
		kernel = flag.String("kernel", "lu", "gantt mode: lu or cholesky")
		real   = flag.Bool("real", false, "gantt mode: trace a real numeric run on the virtual cluster instead of a simulation")
		tb     = flag.Int("tb", 16, "gantt -real mode: tile size in elements")
		work   = flag.Int("workers", 2, "gantt -real mode: worker goroutines per node")
		tree   = flag.Bool("tree", false, "gantt mode: binomial-tree broadcast transport instead of flat fan-out")
		repl   = flag.Int("repl", 1, "gantt mode (LU only, simulator only): replication factor c — c layers of a -p-node base grid, 2.5D-style, so a run uses c·p nodes")
	)
	flag.Parse()

	if *regen != "" {
		if err := regenerate(*regen); err != nil {
			fatal(err)
		}
		return
	}

	if *gantt != "" {
		bc := cluster.BroadcastFlat
		if *tree {
			bc = cluster.BroadcastTree
		}
		if *repl < 1 {
			fatal(fmt.Errorf("-repl must be >= 1 (got %d)", *repl))
		}
		var err error
		if *real {
			if *repl > 1 {
				fatal(fmt.Errorf("-repl is simulator-only (got -real -repl %d)", *repl))
			}
			err = runGanttReal(*gantt, *p, *n, *tb, *work, *scheme, *kernel, bc)
		} else {
			err = runGantt(*gantt, *p, *n, *scheme, *kernel, bc, *repl)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

// regenerate rewrites results/<name> — every file for "all" — from its
// experiments.Artifacts row. A file is written only once it rendered whole.
func regenerate(name string) error {
	var files []string
	found := false
	for _, a := range experiments.Artifacts {
		files = append(files, a.File)
		if name != "all" && name != a.File {
			continue
		}
		found = true
		start := time.Now()
		var buf bytes.Buffer
		if err := a.Render(&buf); err != nil {
			return fmt.Errorf("%s: %w", a.File, err)
		}
		path := filepath.Join("results", a.File)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%.1f s)\n", path, time.Since(start).Seconds())
	}
	if !found {
		return fmt.Errorf("unknown artifact %q (want all or one of %s)", name, strings.Join(files, ", "))
	}
	return nil
}

// runGantt simulates one (scheme, P, N) point with tracing enabled and
// writes Gantt and message CSVs plus a utilization summary.
func runGantt(prefix string, p, n int, scheme, kernel string, bc cluster.BroadcastMode, repl int) error {
	const b = 500
	mt := n / b
	if mt < 1 {
		return fmt.Errorf("matrix size %d below one tile", n)
	}
	d, err := core.New(core.Scheme(scheme), p, core.Options{})
	if err != nil {
		return err
	}
	var g dag.Graph
	switch kernel {
	case "lu":
		if repl > 1 {
			g, d = dag.NewReplicatedLU(mt, repl), dist.NewReplicated(d, repl, mt)
		} else {
			g = dag.NewLU(mt)
		}
	case "cholesky":
		if repl > 1 {
			return fmt.Errorf("-repl is LU-only (got kernel %q)", kernel)
		}
		g = dag.NewCholesky(mt)
	default:
		return fmt.Errorf("unknown kernel %q", kernel)
	}
	m := simulate.PaperMachine()
	rec := &trace.Recorder{}
	res, err := simulate.Run(g, b, d, m, simulate.Options{Recorder: rec, Broadcast: bc})
	if err != nil {
		return err
	}
	if err := writeTraceCSVs(prefix, rec); err != nil {
		return err
	}
	fmt.Printf("%s on %s: %.0f GFlop/s, makespan %.3f s, %d messages\n",
		g.Name(), d.Name(), res.GFlops(), res.Makespan, res.Messages)
	fmt.Printf("broadcast %s: %d wire hops (%d relayed by recipients)\n",
		bc, res.Hops, res.Forwards)
	fmt.Printf("per-node utilization:")
	for _, u := range rec.Utilization(m.Workers, d.Nodes()) {
		fmt.Printf(" %.2f", u)
	}
	fmt.Println()
	fmt.Printf("kernel time breakdown: %v\n", rec.KindBreakdown())
	fmt.Printf("wrote %s-gantt.csv and %s-messages.csv\n", prefix, prefix)
	return nil
}

// runGanttReal executes one real (numeric) factorization on the virtual
// cluster with wall-clock tracing and writes the same CSV pair as the
// simulated mode, plus working-set statistics from the release path.
func runGanttReal(prefix string, p, n, b, workers int, scheme, kernel string, bc cluster.BroadcastMode) error {
	if b < 1 {
		return fmt.Errorf("-tb must be >= 1 (got %d)", b)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", workers)
	}
	mt := n / b
	if mt < 2 {
		return fmt.Errorf("matrix size %d below two %d-element tiles", n, b)
	}
	d, err := core.New(core.Scheme(scheme), p, core.Options{})
	if err != nil {
		return err
	}
	rec := &trace.Recorder{}
	opt := runtime.Options{Workers: workers, Recorder: rec, Broadcast: bc}
	var rep *runtime.Report
	var name string
	switch kernel {
	case "lu":
		name = "LU"
		_, rep, err = runtime.FactorLU(mt, b, d, runtime.GenDiagDominant(mt, b, 1), opt)
	case "cholesky":
		name = "Cholesky"
		_, rep, err = runtime.FactorCholesky(mt, b, d, runtime.GenSPD(mt, b, 1), opt)
	default:
		return fmt.Errorf("unknown kernel %q", kernel)
	}
	if err != nil {
		return err
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("recorded trace inconsistent: %w", err)
	}
	if err := writeTraceCSVs(prefix, rec); err != nil {
		return err
	}
	fmt.Printf("%s on %s (real run): wall time %v, %d messages, %.2f MB on the wire\n",
		name, d.Name(), rep.Elapsed, rep.Stats.TotalMessages(),
		float64(rep.Stats.TotalBytes())/1e6)
	fmt.Printf("broadcast %s: %d wire hops, %d relayed by recipients\n",
		bc, rep.Stats.TotalHops(), rep.Stats.TotalForwards())
	if bc == cluster.BroadcastTree {
		fmt.Printf("per-node outgoing hops:")
		for _, h := range rep.Stats.BySrc(cluster.Hops) {
			fmt.Printf(" %d", h)
		}
		fmt.Println()
		fmt.Printf("per-node relay hops:")
		for _, f := range rep.Stats.BySrc(cluster.Forwards) {
			fmt.Printf(" %d", f)
		}
		fmt.Println()
	}
	peak, foot := 0, 0
	for node, pk := range rep.PeakTilesPerNode {
		peak += pk
		foot += rep.OwnedTilesPerNode[node] + rep.ReceivedTilesPerNode[node]
	}
	fmt.Printf("tile working set: peak %d cluster-wide (keep-everything footprint %d)\n", peak, foot)
	fmt.Printf("per-node utilization:")
	for _, u := range rec.Utilization(workers, d.Nodes()) {
		fmt.Printf(" %.2f", u)
	}
	fmt.Println()
	fmt.Printf("per-node stall (idle-weighted capacity-seconds):")
	for _, s := range rep.Sched {
		fmt.Printf(" %.3fs", s.StallSeconds)
	}
	fmt.Println()
	fmt.Printf("per-node ready-queue peak:")
	for _, s := range rep.Sched {
		fmt.Printf(" %d", s.ReadyPeak)
	}
	fmt.Println()
	fmt.Printf("per-node worker busy:")
	for _, s := range rep.Sched {
		busy := 0.0
		for _, b := range s.WorkerBusySeconds {
			busy += b
		}
		fmt.Printf(" %.3fs", busy)
	}
	fmt.Println()
	dispatched := map[string]int{}
	for _, ev := range rec.Tasks {
		dispatched[ev.Task.Kind.String()]++
	}
	fmt.Printf("dispatched by kind: %v\n", dispatched)
	fmt.Printf("kernel time breakdown: %v\n", rec.KindBreakdown())
	fmt.Printf("wrote %s-gantt.csv and %s-messages.csv\n", prefix, prefix)
	return nil
}

// writeTraceCSVs dumps a recorder's Gantt and message CSVs under prefix.
func writeTraceCSVs(prefix string, rec *trace.Recorder) error {
	for suffix, dump := range map[string]func(w io.Writer) error{
		"-gantt.csv":    rec.GanttCSV,
		"-messages.csv": rec.MessagesCSV,
	} {
		f, err := os.Create(prefix + suffix)
		if err != nil {
			return err
		}
		if err := dump(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simfact:", err)
	os.Exit(1)
}
