package gcrm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"anybc/internal/pattern"
)

// SearchOptions controls the pattern search of Section V-B: for each feasible
// pattern size r ≤ SizeFactor·√P, Algorithm 1 is run Seeds times with
// different random tie-breaking, and the lowest-cost pattern is kept.
type SearchOptions struct {
	// Seeds is the number of random restarts per pattern size (paper: 100).
	Seeds int
	// SizeFactor bounds the pattern size to SizeFactor·√P (paper: 6).
	SizeFactor float64
	// BaseSeed makes the whole search deterministic; runs use seeds
	// BaseSeed, BaseSeed+1, ...
	BaseSeed int64
	// Parallel enables running seeds on all CPUs. Results are identical
	// either way.
	Parallel bool
}

// DefaultSearchOptions mirrors the paper's evaluation protocol.
func DefaultSearchOptions() SearchOptions {
	return SearchOptions{Seeds: 100, SizeFactor: 6, BaseSeed: 1, Parallel: true}
}

// Result is the outcome of a GCR&M search: the best pattern found, the
// pattern size and seed that produced it, and its Cholesky cost z̄.
type Result struct {
	Pattern *pattern.Pattern
	R       int
	Seed    int64
	Cost    float64
}

// Candidate is one (r, seed) evaluation; Sample returns all of them so the
// paper's Figure 9 scatter can be reproduced.
type Candidate struct {
	R    int
	Seed int64
	Cost float64
}

// FeasibleSizes lists the pattern sizes r ∈ [2, factor·√P] that satisfy
// Equation (3).
func FeasibleSizes(P int, factor float64) []int {
	max := int(factor * math.Sqrt(float64(P)))
	var out []int
	for r := 2; r <= max; r++ {
		if Feasible(P, r) {
			out = append(out, r)
		}
	}
	return out
}

// Search runs the full protocol for P nodes and returns the best pattern.
func Search(P int, opts SearchOptions) (*Result, error) {
	res, _, err := search(P, opts, false)
	return res, err
}

// Sample runs the full protocol and additionally returns every candidate
// evaluated, for the Figure 9 pattern-size/seed study.
func Sample(P int, opts SearchOptions) (*Result, []Candidate, error) {
	return search(P, opts, true)
}

// BuildSeeded runs Algorithm 1 for one (r, seed) candidate of the search, so
// a stored search result can be rebuilt from its R and Seed alone.
func BuildSeeded(P, r int, seed int64) (*pattern.Pattern, error) {
	// Each (r, seed) pair gets an independent deterministic stream.
	return Build(P, r, rand.New(rand.NewSource(seed*1_000_003+int64(r))))
}

func search(P int, opts SearchOptions, keepAll bool) (*Result, []Candidate, error) {
	if P <= 0 {
		return nil, nil, fmt.Errorf("gcrm: invalid node count %d", P)
	}
	if opts.Seeds <= 0 {
		opts.Seeds = 1
	}
	if opts.SizeFactor <= 0 {
		opts.SizeFactor = 6
	}
	sizes := FeasibleSizes(P, opts.SizeFactor)
	if len(sizes) == 0 {
		return nil, nil, fmt.Errorf("gcrm: no feasible pattern size for P=%d with factor %.1f", P, opts.SizeFactor)
	}

	type job struct {
		r    int
		seed int64
	}
	jobs := make([]job, 0, len(sizes)*opts.Seeds)
	for _, r := range sizes {
		for s := 0; s < opts.Seeds; s++ {
			jobs = append(jobs, job{r: r, seed: opts.BaseSeed + int64(s)})
		}
	}

	// Each candidate keeps only its cost; the winner is rebuilt from its
	// (r, seed) at the end, so no loser's pattern outlives its evaluation.
	cands := make([]Candidate, len(jobs))
	run := func(i int) {
		j := jobs[i]
		cands[i] = Candidate{R: j.r, Seed: j.seed, Cost: math.Inf(1)}
		if pat, err := BuildSeeded(P, j.r, j.seed); err == nil {
			cands[i].Cost = pat.CostCholesky()
		}
	}

	if opts.Parallel {
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		next := make(chan int, len(jobs))
		for i := range jobs {
			next <- i
		}
		close(next)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					run(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range jobs {
			run(i)
		}
	}

	best := -1
	for i, c := range cands {
		if math.IsInf(c.Cost, 1) {
			continue
		}
		if best == -1 || c.Cost < cands[best].Cost-1e-12 ||
			(math.Abs(c.Cost-cands[best].Cost) <= 1e-12 && c.R < cands[best].R) {
			best = i
		}
	}
	if best == -1 {
		return nil, nil, fmt.Errorf("gcrm: all candidate builds failed for P=%d", P)
	}
	win := cands[best]
	pat, err := BuildSeeded(P, win.R, win.Seed)
	if err != nil {
		return nil, nil, err
	}
	var all []Candidate
	if keepAll {
		all = make([]Candidate, 0, len(cands))
		for _, c := range cands {
			if !math.IsInf(c.Cost, 1) {
				all = append(all, c)
			}
		}
	}
	return &Result{Pattern: pat, R: win.R, Seed: win.Seed, Cost: win.Cost}, all, nil
}
