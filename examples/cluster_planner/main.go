// Cluster planner: the paper's motivating scenario as a tool. Your job
// scheduler gave you P nodes (often not a nice product of two close
// integers — the paper's cluster has 44 nodes and other users hold
// reservations). For a target factorization and matrix size, the planner
// simulates every applicable scheme on the calibrated machine model and
// reports the predicted time-to-solution, so you can decide whether to use
// all P nodes with a generalized pattern or fall back to fewer nodes.
//
//	go run ./examples/cluster_planner -p 23 -n 50000 -kernel lu
//	go run ./examples/cluster_planner -p 31 -n 50000 -kernel cholesky
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

func main() {
	var (
		p      = flag.Int("p", 23, "nodes your reservation got")
		n      = flag.Int("n", 50000, "matrix size (elements per side)")
		b      = flag.Int("b", 500, "tile size")
		kernel = flag.String("kernel", "lu", "factorization: lu or cholesky")
	)
	flag.Parse()

	mt := *n / *b
	if mt < 2 {
		fmt.Fprintln(os.Stderr, "cluster_planner: matrix too small for the tile size")
		os.Exit(1)
	}
	machine := simulate.PaperMachine()

	var g dag.Graph
	var candidates []dist.Distribution
	switch *kernel {
	case "lu":
		g = dag.NewLU(mt)
		candidates = []dist.Distribution{
			dist.NewTwoDBC(*p, 1),
			dist.Best2DBC(*p),
			dist.Best2DBCAtMost(*p),
			dist.NewG2DBC(*p),
		}
	case "cholesky":
		g = dag.NewCholesky(mt)
		gcrmD, err := core.New(core.GCRM, *p, core.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster_planner:", err)
			os.Exit(1)
		}
		candidates = []dist.Distribution{
			dist.Best2DBCAtMost(*p),
			dist.BestSBCAtMost(*p),
			gcrmD,
		}
	default:
		fmt.Fprintf(os.Stderr, "cluster_planner: unknown kernel %q\n", *kernel)
		os.Exit(1)
	}

	fmt.Printf("Planning %s of a %dx%d matrix (tile %d) with up to %d nodes\n\n", *kernel, *n, *n, *b, *p)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "distribution\tnodes\ttime (s)\tGFlop/s\tGF/s/node\tmessages\t")
	bestTime, bestName := 0.0, ""
	seen := map[string]bool{}
	for _, d := range candidates {
		if seen[d.Name()] {
			continue
		}
		seen[d.Name()] = true
		res, err := simulate.Run(g, *b, d, machine, simulate.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster_planner:", err)
			os.Exit(1)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.0f\t%.1f\t%d\t\n",
			d.Name(), d.Nodes(), res.Makespan, res.GFlops(),
			res.GFlops()/float64(d.Nodes()), res.Messages)
		if bestName == "" || res.Makespan < bestTime {
			bestTime, bestName = res.Makespan, d.Name()
		}
	}
	tw.Flush()
	fmt.Printf("\nRecommendation: %s (predicted time to solution %.2f s)\n", bestName, bestTime)
}
