// Quickstart: build a distribution for your node count and inspect its
// communication cost.
//
// The paper's motivating problem: your reservation got P = 23 nodes. The
// classical 2DBC grid degenerates (23 is prime), so either you waste nodes or
// you pay a huge communication bill. G-2DBC and GCR&M give you balanced,
// communication-efficient patterns on all 23 nodes.
//
//	go run ./examples/quickstart -p 23
package main

import (
	"flag"
	"fmt"
	"os"

	"anybc/internal/core"
	"anybc/internal/dist"
)

func main() {
	p := flag.Int("p", 23, "number of nodes available")
	flag.Parse()

	fmt.Printf("Distribution schemes for P = %d nodes\n\n", *p)

	// Non-symmetric factorizations (LU): 2DBC vs the paper's G-2DBC.
	fmt.Println("LU factorization (cost T = x̄ + ȳ; communication ∝ T − 2):")
	dbc := dist.Best2DBC(*p)
	g2 := dist.NewG2DBC(*p)
	for _, d := range []dist.Distribution{dbc, g2} {
		r := core.Describe(d)
		fmt.Printf("  %-22s pattern %-8s T = %.3f\n", r.Name, r.Dims, r.CostLU)
	}
	saving := (1 - (g2.Pattern().CostLU()-2)/(dbc.Pattern().CostLU()-2)) * 100
	fmt.Printf("  → G-2DBC saves %.0f%% of the LU communication volume while using all %d nodes.\n\n", saving, *p)

	// Symmetric factorizations (Cholesky): SBC (if it exists) vs GCR&M.
	fmt.Println("Cholesky factorization (cost T = z̄; communication ∝ T − 1):")
	if sbc, err := dist.NewSBC(*p); err == nil {
		r := core.Describe(sbc)
		fmt.Printf("  %-22s pattern %-8s T = %.3f\n", r.Name, r.Dims, r.CostCholesky)
	} else {
		fallback := dist.BestSBCAtMost(*p)
		fmt.Printf("  SBC: no distribution for P=%d; best fallback uses %d nodes (%s, T = %.0f)\n",
			*p, fallback.Nodes(), fallback.Pattern().Dims(), fallback.Pattern().CostCholesky())
	}
	gcrmD, err := core.New(core.GCRM, *p, core.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	r := core.Describe(gcrmD)
	fmt.Printf("  %-22s pattern %-8s T = %.3f\n", r.Name, r.Dims, r.CostCholesky)
	fmt.Printf("  → GCR&M uses all %d nodes at an SBC-class communication cost.\n\n", *p)

	// Show the (start of the) G-2DBC pattern itself.
	pat := g2.Pattern()
	fmt.Printf("G-2DBC pattern (%s); tile (i,j) is owned by cell (i mod %d, j mod %d):\n",
		pat.Dims(), pat.Rows(), pat.Cols())
	fmt.Print(pat)
}
