// Distributed Cholesky factorization of a symmetric positive definite
// matrix, stored as its lower triangle only: the paper's symmetric use case.
// Compares three schemes end to end on the virtual cluster — 2DBC, SBC (on
// the largest valid node count ≤ P) and GCR&M on all P nodes — verifying the
// residual and checking the measured communication volume against the
// Equation (2) prediction m(m+1)/2 · (z̄ − 1).
//
//	go run ./examples/cholesky_symmetric -p 23 -mt 24 -b 16
package main

import (
	"flag"
	"fmt"
	"os"

	"anybc/internal/core"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
)

func main() {
	var (
		p       = flag.Int("p", 23, "number of virtual nodes available")
		mt      = flag.Int("mt", 24, "matrix size in tiles")
		b       = flag.Int("b", 16, "tile size in elements")
		workers = flag.Int("workers", 2, "worker goroutines per node")
		seed    = flag.Int64("seed", 7, "matrix generator seed")
	)
	flag.Parse()

	fmt.Printf("Distributed Cholesky: lower triangle of %dx%d tiles of %dx%d, up to P=%d nodes\n\n",
		*mt, *mt, *b, *b, *p)

	orig := matrix.NewSPD(*mt, *b, *seed)
	gen := runtime.GenSPD(*mt, *b, *seed)

	gcrmD, err := core.New(core.GCRM, *p, core.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cholesky_symmetric:", err)
		os.Exit(1)
	}

	schemes := []dist.Distribution{
		dist.Best2DBC(*p),
		dist.BestSBCAtMost(*p),
		gcrmD,
	}
	for _, d := range schemes {
		fact, rep, err := runtime.FactorCholesky(*mt, *b, d, gen, runtime.Options{Workers: *workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cholesky_symmetric:", err)
			os.Exit(1)
		}
		pd := d.(dist.PatternDistribution)
		predicted := pd.Pattern().CommVolumeCholesky(*mt)
		measured := rep.Stats.TotalMessages()

		fmt.Printf("%s (%d nodes, T = %.3f)\n", d.Name(), d.Nodes(), pd.Pattern().CostCholesky())
		fmt.Printf("  residual ‖A−LLᵀ‖/‖A‖ = %.2e\n", matrix.ResidualCholesky(orig, fact))
		fmt.Printf("  tile messages: measured %d, Eq.(2) predicts ≤ %.0f (%.0f%%)\n",
			measured, predicted, 100*float64(measured)/predicted)
		fmt.Printf("  bytes on the wire: %.2f MB; wall time %v\n\n",
			float64(rep.Stats.TotalBytes())/1e6, rep.Elapsed)
	}
	fmt.Println("Note how GCR&M uses every available node while sending fewer tiles")
	fmt.Println("than 2DBC and matching the SBC communication class.")
}
