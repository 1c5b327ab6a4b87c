// Command distgen generates and inspects distribution patterns: it prints
// any scheme's pattern and communication costs for a given node count, and
// reproduces the paper's Table I.
//
// Usage:
//
//	distgen -scheme g2dbc -p 23            # pattern + costs for one scheme
//	distgen -p 23                          # compare all schemes for P=23
//	distgen -table1                        # reproduce Table Ia and Ib
//	distgen -scheme gcrm -p 23 -seeds 100  # tune the GCR&M search
package main

import (
	"flag"
	"fmt"
	"os"

	"anybc/internal/core"
	"anybc/internal/experiments"
	"anybc/internal/gcrm"
)

func main() {
	var (
		scheme  = flag.String("scheme", "", "distribution scheme: 2dbc, g2dbc, sbc, gcrm (empty = compare all)")
		p       = flag.Int("p", 23, "number of nodes")
		table1  = flag.Bool("table1", false, "print Table Ia and Ib and exit")
		verify  = flag.Bool("verify", false, "run real distributed factorizations and check measured communication against Equations (1)/(2)")
		mt      = flag.Int("mt", 24, "verify mode: matrix size in tiles")
		seeds   = flag.Int("seeds", 100, "GCR&M search: random restarts per pattern size")
		factor  = flag.Float64("factor", 6, "GCR&M search: pattern size cap factor (r <= factor*sqrt(P))")
		showPat = flag.Bool("pattern", false, "print the full pattern grid")
	)
	flag.Parse()

	opts := core.Options{GCRMSearch: gcrm.SearchOptions{
		Seeds: *seeds, SizeFactor: *factor, BaseSeed: 1, Parallel: true,
	}}

	if *verify {
		rows, err := experiments.CommValidation(*mt, 4, 20)
		if err != nil {
			fatal(err)
		}
		experiments.RenderValidation(os.Stdout, *mt, rows)
		return
	}

	if *table1 {
		fmt.Println("Table Ia — LU factorization")
		experiments.RenderTableIa(os.Stdout, experiments.TableIa(experiments.TableIaPs))
		fmt.Println("\nTable Ib — Cholesky factorization")
		rows, err := experiments.TableIb(experiments.TableIbPs, opts.GCRMSearch)
		if err != nil {
			fatal(err)
		}
		experiments.RenderTableIb(os.Stdout, rows)
		return
	}

	schemes := core.Schemes()
	if *scheme != "" {
		schemes = []core.Scheme{core.Scheme(*scheme)}
	}
	for _, s := range schemes {
		d, err := core.New(s, *p, opts)
		if err != nil {
			fmt.Printf("%-6s P=%d: %v\n", s, *p, err)
			continue
		}
		r := core.Describe(d)
		fmt.Printf("%-6s %-20s pattern %-8s T_LU=%-8.3f", s, r.Name, r.Dims, r.CostLU)
		if r.CostCholesky > 0 {
			fmt.Printf(" T_Chol=%-8.3f", r.CostCholesky)
		}
		fmt.Printf(" balanced=%v\n", r.Balanced)
		if *showPat {
			fmt.Println(core.Pattern(d))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distgen:", err)
	os.Exit(1)
}
