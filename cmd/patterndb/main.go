// Command patterndb regenerates the database of GCR&M patterns that
// internal/core embeds — the "database containing, for each possible value of
// P, a very efficient pattern" proposed in the paper's conclusion. For every
// P = 2..64 it runs the paper's search (gcrm.DefaultSearchOptions) and writes
// one entry, a "P <P> seed <seed>" line followed by the pattern in the
// pattern.Marshal format, to stdout.
//
// Usage:
//
//	go run ./cmd/patterndb > internal/core/gcrm_patterns.txt
//
// The search is deterministic, so CI diffs a fresh run against the committed
// file.
package main

import (
	"bufio"
	"fmt"
	"os"

	"anybc/internal/gcrm"
)

// maxP is the largest node count the database covers.
const maxP = 64

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: patterndb > internal/core/gcrm_patterns.txt (it takes no arguments)")
		os.Exit(2)
	}
	w := bufio.NewWriter(os.Stdout)
	for p := 2; p <= maxP; p++ {
		res, err := gcrm.Search(p, gcrm.DefaultSearchOptions())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "P %d seed %d\n", p, res.Seed)
		if err := res.Pattern.Marshal(w); err != nil {
			fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "patterndb:", err)
	os.Exit(1)
}
