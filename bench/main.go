// Command bench is the repository's benchmark: five named workloads, six
// end-to-end metrics and a per-layer ledger taken from outside the program.
// README.md in this directory is the glossary.
//
// The directory is a module of its own (go.mod takes the repository's module
// from the directory above), so the commands below run from inside it.
//
// One workload, as the driver runs it (BENCHMARK.json names bench/run.sh,
// which builds this command inside the checkout and passes its arguments on):
//
//	go run . --workload lu-compute --seed 1 --seconds 12 --trace 0
//
// prints the metrics by name and, as the last line, one JSON object with the
// keys correct, attempted, failed and metrics. --trace 1 runs the traced
// pass and prints the per-layer metrics in the same form.
//
// The whole suite, each workload in its own child process, round-robin:
//
//	go run . [-out results.json]
//	go run . -compare old.json new.json
//	go run . -selfcheck
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "run this one workload and print the driver's result line")
		seed      = flag.Int64("seed", 1, "seed of the matrix generators and the serve job order")
		seconds   = flag.Float64("seconds", runSeconds, "length of a run: the workload table's operation counts are for 12 s and scale with this")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, no wrappers; 1: the traced pass, per-layer metrics")
		traceOut  = flag.String("trace-out", "", "where the traced pass writes its spans (default .bench_build/trace-<workload>.json)")
		smoke     = flag.Bool("smoke", false, "tiny sizes: drives every workload and its verification in seconds")
		out       = flag.String("out", "", "suite: write the results as JSON to this file")
		compare   = flag.Bool("compare", false, "compare two suite result files: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail unless every end-to-end metric agrees within its bound")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the tables in spec.go")
		child     = flag.Bool("setup-child", false, "internal: set the workload up, print a ready line and exit (a run starts these to clock setup_s)")
	)
	flag.Parse()

	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case *name != "":
		w := findWorkload(*name, *smoke)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			return 2
		}
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, smoke: *smoke, traced: *traced != 0, traceOut: *traceOut}
		if *child {
			return setupChild(cfg, os.Stdout)
		}
		if cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		res := run(cfg, os.Stdout)
		if err := printResult(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	sc := suiteConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	if *selfcheck {
		return selfCheck(sc, os.Stdout)
	}
	res, err := runSuite(sc, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.save(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if res.failed() > 0 {
		return 1
	}
	return 0
}
