package gcrm

import (
	"math/rand"

	"anybc/internal/pattern"
)

// Refine applies a hill-climbing post-pass to a symmetric pattern produced
// by Build (an extension beyond the paper's Algorithm 1). The move set
// reassigns one off-diagonal cell (i, j) from its owner p to another node q
// that already appears on both colrows i and j and has a strictly smaller
// load. Such a move never increases any colrow's distinct-node count — and
// it strictly decreases z_i (or z_j) whenever the cell was p's last presence
// on that colrow — so the cost is monotonically non-increasing while the
// balance guarantee (loads within {⌊·⌋, ⌈·⌉}) is preserved or improved.
//
// rng breaks ties among equally attractive moves; maxPasses bounds the
// number of full sweeps. Returns the number of cells moved.
func Refine(pat *pattern.Pattern, maxPasses int, rng *rand.Rand) int {
	r := pat.Rows()
	P := pat.NumNodes()

	// presence[p*r+cr] counts p's off-diagonal cells on colrow cr.
	presence := make([]int, P*r)
	loads := make([]int, P)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if i == j {
				continue
			}
			p := pat.At(i, j)
			if p == pattern.Undefined {
				continue
			}
			presence[p*r+i]++
			presence[p*r+j]++
			loads[p]++
		}
	}

	moved := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				if i == j || pat.At(i, j) == pattern.Undefined {
					continue
				}
				p := pat.At(i, j)
				// Gain: colrows where this cell is p's only presence.
				gain := 0
				if presence[p*r+i] == 1 {
					gain++
				}
				if presence[p*r+j] == 1 {
					gain++
				}
				if gain == 0 {
					continue
				}
				// Candidates: nodes on both colrows with smaller load (so
				// balance can only improve) — collect and pick randomly.
				var cands []int
				for q := 0; q < P; q++ {
					if q == p || loads[q] >= loads[p] {
						continue
					}
					if presence[q*r+i] > 0 && presence[q*r+j] > 0 {
						cands = append(cands, q)
					}
				}
				if len(cands) == 0 {
					continue
				}
				q := cands[rng.Intn(len(cands))]
				pat.Set(i, j, q)
				presence[p*r+i]--
				presence[p*r+j]--
				presence[q*r+i]++
				presence[q*r+j]++
				loads[p]--
				loads[q]++
				moved++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return moved
}

// SearchRefined runs Search and then Refine on the winning pattern,
// returning the (possibly improved) result. The refined cost is never worse
// than the plain search result.
func SearchRefined(P int, opts SearchOptions, refinePasses int) (*Result, error) {
	res, err := Search(P, opts)
	if err != nil {
		return nil, err
	}
	pat := res.Pattern.Clone()
	rng := rand.New(rand.NewSource(opts.BaseSeed*7919 + int64(P)))
	Refine(pat, refinePasses, rng)
	cost := pat.CostCholesky()
	if cost < res.Cost {
		return &Result{Pattern: pat, R: res.R, Seed: res.Seed, Cost: cost}, nil
	}
	return res, nil
}
