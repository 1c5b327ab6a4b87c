// Command distgen prints distribution patterns: any scheme's pattern
// dimensions and communication costs for a given node count. GCR&M uses the
// paper's search protocol, read from core's embedded patterns for P ≤ 64.
//
// Usage:
//
//	distgen -scheme g2dbc -p 23   # pattern + costs for one scheme
//	distgen -p 23                 # compare all schemes for P=23
//	distgen -p 23 -pattern        # ... and print each pattern grid
package main

import (
	"flag"
	"fmt"
	"os"

	"anybc/internal/core"
	"anybc/internal/dist"
)

func main() {
	var (
		scheme  = flag.String("scheme", "", "distribution scheme: 2dbc, g2dbc, sbc, gcrm, sts (empty = compare all)")
		p       = flag.Int("p", 23, "number of nodes")
		showPat = flag.Bool("pattern", false, "print the full pattern grid")
	)
	flag.Parse()

	schemes := core.Schemes()
	if *scheme != "" {
		schemes = []core.Scheme{core.Scheme(*scheme)}
	}
	built := 0
	for _, s := range schemes {
		d, err := core.New(s, *p, core.Options{})
		if err != nil {
			if *scheme != "" {
				fatal(err)
			}
			fmt.Printf("%-6s P=%d: %v\n", s, *p, err)
			continue
		}
		built++
		r := core.Describe(d)
		fmt.Printf("%-6s %-20s pattern %-8s T_LU=%-8.3f", s, r.Name, r.Dims, r.CostLU)
		if r.CostCholesky > 0 {
			fmt.Printf(" T_Chol=%-8.3f", r.CostCholesky)
		}
		fmt.Printf(" balanced=%v\n", r.Balanced)
		if *showPat {
			pat, _ := dist.PatternOf(d)
			fmt.Println(pat)
		}
	}
	if built == 0 {
		fatal(fmt.Errorf("no scheme serves P=%d", *p))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distgen:", err)
	os.Exit(1)
}
