// Package gcrm implements the Greedy ColRow & Matching algorithm (GCR&M) of
// Section V of the paper: a heuristic that builds square symmetric
// distribution patterns for any number of nodes P, generalizing the Symmetric
// Block Cyclic distribution.
//
// The algorithm has two phases. Phase 1 greedily assigns colrows to nodes: as
// long as an off-diagonal cell remains uncovered, the least-loaded node
// receives the colrow that covers the most new cells (ties broken by lowest
// colrow usage, then randomly). A cell (i, j) is covered by a node once both
// colrows i and j are assigned to it. Phase 2 assigns cells to covering nodes
// through two bipartite matchings (first with ⌊r(r−1)/P⌋ duplicates per node,
// then with one extra duplicate for the leftovers), with a final greedy
// fallback for any cell that is still unassigned. Diagonal cells are left
// undefined and resolved at replication time (see dist.DiagResolver).
package gcrm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"anybc/internal/matching"
	"anybc/internal/pattern"
)

// Feasible reports whether a balanced r×r pattern can exist for P nodes,
// i.e. whether Equation (3) of the paper holds: ⌈r(r−1)/P⌉ ≤ r²/P.
// It additionally requires r(r−1) ≥ P: since an undefined diagonal cell can
// only be assigned to a node already on its colrow, every node must own at
// least one off-diagonal cell to appear in the distribution at all.
func Feasible(P, r int) bool {
	if P <= 0 || r <= 0 {
		return false
	}
	if r*(r-1) < P {
		return false
	}
	ceil := (r*(r-1) + P - 1) / P
	return float64(ceil) <= float64(r*r)/float64(P)
}

// Build runs Algorithm 1 for a given node count P and pattern size r, using
// rng for tie-breaking. It returns an r×r pattern whose off-diagonal cells
// are all assigned and whose diagonal cells are Undefined. The same seed
// always produces the same pattern.
func Build(P, r int, rng *rand.Rand) (*pattern.Pattern, error) {
	if P <= 0 {
		return nil, fmt.Errorf("gcrm: invalid node count %d", P)
	}
	if r < 2 {
		return nil, fmt.Errorf("gcrm: pattern size %d too small", r)
	}
	if !Feasible(P, r) {
		return nil, fmt.Errorf("gcrm: no balanced %dx%d pattern exists for P=%d (Equation 3)", r, r, P)
	}

	colrows, err := phase1(P, r, rng)
	if err != nil {
		return nil, fmt.Errorf("gcrm: %w", err)
	}
	pat := phase2(P, r, colrows, rng)

	if err := pat.Validate(); err != nil {
		return nil, fmt.Errorf("gcrm: built invalid pattern: %w", err)
	}
	return pat, nil
}

// assignment holds, for each node, the set of colrows it may appear on: one
// node-major table of P×r cells, where cell p·r+cr is set once node p holds
// colrow cr. Every loop over it runs in node and colrow order, so no random
// draw depends on how the sets are stored.
type assignment struct {
	r     int
	cells []bool // node-major, P×r
	size  []int  // per node: number of colrows it holds
	usage []int  // per colrow: number of nodes holding it
}

func newAssignment(P, r int) *assignment {
	return &assignment{r: r, cells: make([]bool, P*r), size: make([]int, P), usage: make([]int, r)}
}

func (a *assignment) has(p, cr int) bool { return a.cells[p*a.r+cr] }

// colrows lists the colrows node p holds, in order, into dst[:0].
func (a *assignment) colrows(p int, dst []int) []int {
	dst = dst[:0]
	for cr, h := range a.cells[p*a.r : (p+1)*a.r] {
		if h {
			dst = append(dst, cr)
		}
	}
	return dst
}

func (a *assignment) add(p, cr int) {
	if !a.has(p, cr) {
		a.cells[p*a.r+cr] = true
		a.size[p]++
		a.usage[cr]++
	}
}

// phase1 computes the colrow-to-node assignment A (Algorithm 1, lines 1-10).
// It returns an error — instead of crashing the caller — if the greedy cover
// ever stalls with uncovered cells, which the feasibility precondition rules
// out but library code must not bet the process on.
func phase1(P, r int, rng *rand.Rand) (*assignment, error) {
	a := newAssignment(P, r)
	// Line 2-3: one node per colrow, round robin.
	for i := 0; i < r; i++ {
		a.add(i%P, i)
	}

	// covered[i*r+j] marks off-diagonal cells already covered by some node.
	covered := make([]bool, r*r)
	uncovered := r * (r - 1)
	markCovered := func(i, j int) {
		if !covered[i*r+j] {
			covered[i*r+j] = true
			uncovered--
		}
		if !covered[j*r+i] {
			covered[j*r+i] = true
			uncovered--
		}
	}
	// Initial coverage: a node holding colrows i and j covers (i,j) and (j,i).
	// After round-robin initialization a node holds colrows {i, i+P, ...}, so
	// (i,j) is covered exactly when j ≡ i (mod P).
	for i := 0; i < r; i++ {
		for j := i + P; j < r; j += P {
			markCovered(i, j)
		}
	}

	newCells := make([]int, r)
	nodes := make([]int, 0, P)
	candidates := make([]int, 0, r)
	held := make([]int, 0, r)
	for uncovered > 0 {
		// Line 5: least-loaded node (fewest colrows), ties broken randomly.
		p := leastLoaded(a, nodes, rng)

		// Lines 6-8: pick the colrow covering the most new cells.
		held = a.colrows(p, held)
		best := bestColrow(a, covered, newCells, p, held)
		if best == -1 {
			// Unreachable for feasible (P, r): if the least-loaded node holds
			// every colrow, all nodes do, and then every cell is covered. Fail
			// diagnosably rather than crash if the invariant ever breaks.
			return nil, fmt.Errorf("phase 1 stalled: node %d already holds all %d colrows but %d cells remain uncovered", p, r, uncovered)
		}
		// Tie-break: lowest usage, then random.
		candidates = candidates[:0]
		for q := 0; q < r; q++ {
			if !a.has(p, q) && newCells[q] == newCells[best] {
				candidates = append(candidates, q)
			}
		}
		minUsage := math.MaxInt
		for _, q := range candidates {
			if a.usage[q] < minUsage {
				minUsage = a.usage[q]
			}
		}
		finalists := candidates[:0]
		for _, q := range candidates {
			if a.usage[q] == minUsage {
				finalists = append(finalists, q)
			}
		}
		b := finalists[rng.Intn(len(finalists))]

		// Lines 9-10.
		for _, cr := range held {
			markCovered(b, cr)
		}
		a.add(p, b)
	}
	return a, nil
}

// bestColrow returns the colrow node p does not yet hold that covers the
// most still-uncovered cells together with the colrows p holds, listed in
// held (scratch newCells must have length r), or -1 if p already holds every
// colrow — the stall condition phase1 reports as an error.
func bestColrow(a *assignment, covered []bool, newCells []int, p int, held []int) int {
	r := a.r
	best := -1
	for q := range newCells {
		newCells[q] = 0
		if a.has(p, q) {
			continue
		}
		for _, cr := range held {
			if !covered[q*r+cr] {
				newCells[q]++
			}
			if !covered[cr*r+q] {
				newCells[q]++
			}
		}
		if best == -1 || newCells[q] > newCells[best] {
			best = q
		}
	}
	return best
}

// leastLoaded draws one of the nodes holding the fewest colrows, listing
// them in scratch cands (capacity P) in node order.
func leastLoaded(a *assignment, cands []int, rng *rand.Rand) int {
	min := slices.Min(a.size)
	cands = cands[:0]
	for p, n := range a.size {
		if n == min {
			cands = append(cands, p)
		}
	}
	return cands[rng.Intn(len(cands))]
}

// phase2 assigns off-diagonal cells to covering nodes (Algorithm 1, lines
// 11-14) using two bipartite matchings and a greedy fallback.
func phase2(P, r int, a *assignment, rng *rand.Rand) *pattern.Pattern {
	pat := pattern.New(r, r)

	// The off-diagonal cells in row-major order, and the nodes covering
	// each, in node order: cell id's coverers are adj[off[id]:off[id+1]].
	edges := 0
	for _, n := range a.size {
		edges += n * (n - 1)
	}
	cells := make([][2]int, 0, r*(r-1))
	off := make([]int32, 1, r*(r-1)+1)
	adj := make([]int32, 0, edges)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if i == j {
				continue
			}
			cells = append(cells, [2]int{i, j})
			for p := 0; p < P; p++ {
				if a.has(p, i) && a.has(p, j) {
					adj = append(adj, int32(p))
				}
			}
			off = append(off, int32(len(adj)))
		}
	}

	assignedTo := make([]int, len(cells))
	for i := range assignedTo {
		assignedTo[i] = -1
	}
	loads := make([]int, P)

	// First matching: k = ⌊r(r−1)/P⌋ duplicates per node.
	if k := r * (r - 1) / P; k > 0 {
		m := matching.Match(off, adj, nil, P, k)
		for id, dup := range m {
			if dup >= 0 {
				p := int(dup) / k
				assignedTo[id] = p
				loads[p]++
			}
		}
	}

	// Second matching: unassigned cells vs one duplicate per node.
	var unassigned []int32
	for id, p := range assignedTo {
		if p == -1 {
			unassigned = append(unassigned, int32(id))
		}
	}
	if len(unassigned) > 0 {
		m := matching.Match(off, adj, unassigned, P, 1)
		for _, id := range unassigned {
			if p := int(m[id]); p >= 0 {
				assignedTo[id] = p
				loads[p]++
			}
		}
	}

	// Greedy fallback (lines 13-14): assign each remaining cell to the
	// least-loaded node that can cover it by adding at most one colrow.
	for id, p := range assignedTo {
		if p != -1 {
			continue
		}
		i, j := cells[id][0], cells[id][1]
		best := -1
		for q := 0; q < P; q++ {
			if a.has(q, i) || a.has(q, j) {
				if best == -1 || loads[q] < loads[best] {
					best = q
				}
			}
		}
		if best == -1 {
			// Cannot happen: phase 1 assigns every colrow to some node.
			best = rng.Intn(P)
		}
		a.add(best, i)
		a.add(best, j)
		assignedTo[id] = best
		loads[best]++
	}

	for id, p := range assignedTo {
		pat.Set(cells[id][0], cells[id][1], p)
	}
	rebalance(P, r, pat, a, loads)
	return pat
}

// rebalance enforces the paper's balance requirement (every node owns either
// ⌊r(r−1)/P⌋ or ⌈r(r−1)/P⌉ cells) after the matchings. Algorithm 1's
// matchings achieve this when they are perfect, but for unlucky phase-1
// colrow assignments some node may cover too few cells; in the spirit of
// lines 13-14 we then move cells from the most-loaded node to the
// least-loaded one, preferring moves that add no new colrow to the receiver
// (which would raise the communication cost). The loop strictly decreases the
// sum of squared loads, so it terminates with spread ≤ 1.
func rebalance(P, r int, pat *pattern.Pattern, a *assignment, loads []int) {
	for {
		pMin, pMax := 0, 0
		for q := 1; q < P; q++ {
			if loads[q] < loads[pMin] {
				pMin = q
			}
			if loads[q] > loads[pMax] {
				pMax = q
			}
		}
		if loads[pMax]-loads[pMin] <= 1 {
			return
		}
		// Take from any maximally loaded node the cell that costs pMin the
		// fewest new colrows; among equals prefer the most-loaded donor.
		bestI, bestJ, bestScore := -1, -1, -1
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				if i == j {
					continue
				}
				q := pat.At(i, j)
				if q == pattern.Undefined || loads[q] < loads[pMin]+2 {
					continue
				}
				newCR := 0
				if !a.has(pMin, i) {
					newCR++
				}
				if !a.has(pMin, j) {
					newCR++
				}
				score := loads[q]*4 + (2 - newCR)
				if score > bestScore {
					bestI, bestJ, bestScore = i, j, score
				}
			}
		}
		if bestScore < 0 {
			// Unreachable while spread > 1 (a donor with load ≥ min+2 always
			// exists), but keep the loop total.
			return
		}
		donor := pat.At(bestI, bestJ)
		pat.Set(bestI, bestJ, pMin)
		a.add(pMin, bestI)
		a.add(pMin, bestJ)
		loads[donor]--
		loads[pMin]++
	}
}
