package dist

import (
	"fmt"

	"anybc/internal/pattern"
)

// SBCKind distinguishes the two families of node counts for which the
// Symmetric Block Cyclic distribution exists (Beaumont et al., SC 2022;
// recalled in Section II-A of the IPDPS 2023 paper).
type SBCKind int

const (
	// SBCPairKind is the P = r(r-1)/2 family: one node per unordered colrow
	// pair {i, j}, owning both cells (i, j) and (j, i). Each colrow holds
	// r-1 distinct nodes, so the Cholesky cost is r-1 ≈ √(2P) − 0.5 — the
	// paper's "extended" SBC cost law.
	SBCPairKind SBCKind = iota
	// SBCEvenKind is the P = r²/2 family (r even): a perfect matching of the
	// colrows is chosen and each matched pair {i, j} is split between two
	// nodes (one owning (i, j), the other (j, i)); all other pairs keep a
	// single owner. Each colrow holds r distinct nodes, so the cost is
	// exactly r = √(2P) — the paper's "basic" SBC cost law.
	SBCEvenKind
)

func (k SBCKind) String() string {
	switch k {
	case SBCPairKind:
		return "pair"
	case SBCEvenKind:
		return "even"
	default:
		return fmt.Sprintf("SBCKind(%d)", int(k))
	}
}

// SBC is the Symmetric Block Cyclic distribution: a square r×r pattern whose
// off-diagonal cells pair up symmetric positions on shared nodes, and whose
// diagonal cells are left undefined and resolved at replication time (the
// extended-SBC diagonal rule). Valid only for P = r(r-1)/2 or P = r²/2.
type SBC struct {
	r    int
	kind SBCKind
	res  *DiagResolver
}

// pairIndex numbers the unordered pairs {i, j}, i < j, of {0..r-1}
// lexicographically.
func pairIndex(r, i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*r-i-1)/2 + (j - i - 1)
}

// NewSBCPair builds the SBC distribution for P = r(r-1)/2 nodes, r ≥ 2.
func NewSBCPair(r int) *SBC {
	if r < 2 {
		panic(fmt.Sprintf("dist: SBC pair construction needs r >= 2, got %d", r))
	}
	pat := pattern.New(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if i != j {
				pat.Set(i, j, pairIndex(r, i, j))
			}
		}
	}
	d := &SBC{r: r, kind: SBCPairKind}
	d.res = NewDiagResolver(d.Name(), pat)
	return d
}

// NewSBCEven builds the SBC distribution for P = r²/2 nodes, r even, r ≥ 2.
func NewSBCEven(r int) *SBC {
	if r < 2 || r%2 != 0 {
		panic(fmt.Sprintf("dist: SBC even construction needs even r >= 2, got %d", r))
	}
	pat := pattern.New(r, r)
	// Full pairs (those not in the matching {2k, 2k+1}) get one node for both
	// symmetric cells; matched pairs are split between two nodes.
	next := 0
	id := make(map[[2]int]int)
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			if j == i+1 && i%2 == 0 {
				continue // matched pair, handled below
			}
			id[[2]int{i, j}] = next
			next++
		}
	}
	for k := 0; k < r/2; k++ {
		i, j := 2*k, 2*k+1
		pat.Set(i, j, next)
		next++
		pat.Set(j, i, next)
		next++
		_ = i
	}
	for key, n := range id {
		pat.Set(key[0], key[1], n)
		pat.Set(key[1], key[0], n)
	}
	d := &SBC{r: r, kind: SBCEvenKind}
	d.res = NewDiagResolver(d.Name(), pat)
	return d
}

// SBCValidP reports whether an SBC distribution exists for exactly P nodes,
// and returns its pattern size r and family.
func SBCValidP(P int) (r int, kind SBCKind, ok bool) {
	for r := 2; r*(r-1)/2 <= P; r++ {
		if r*(r-1)/2 == P {
			return r, SBCPairKind, true
		}
	}
	for r := 2; r*r/2 <= P; r += 2 {
		if r*r/2 == P {
			return r, SBCEvenKind, true
		}
	}
	return 0, 0, false
}

// NewSBC builds the SBC distribution for exactly P nodes, or reports that no
// SBC exists for this P.
func NewSBC(P int) (*SBC, error) {
	r, kind, ok := SBCValidP(P)
	if !ok {
		return nil, fmt.Errorf("dist: no SBC distribution exists for P=%d (needs r(r-1)/2 or r²/2)", P)
	}
	if kind == SBCPairKind {
		return NewSBCPair(r), nil
	}
	return NewSBCEven(r), nil
}

// BestSBCAtMost returns the SBC distribution with the largest node count
// P' ≤ P — the choice the paper's experiments make when no SBC exists for the
// available node count (e.g. P=31 → SBC on 28 nodes, P=35 → SBC on 32).
func BestSBCAtMost(P int) *SBC {
	if P < 1 {
		panic(fmt.Sprintf("dist: invalid node count %d", P))
	}
	best := -1
	var bestD *SBC
	for q := P; q >= 1 && bestD == nil; q-- {
		if d, err := NewSBC(q); err == nil {
			best, bestD = q, d
		}
	}
	if bestD == nil {
		// P = 1: a single node trivially owns everything; model it as the
		// degenerate pair construction on r=2 collapsed to one node.
		pat := pattern.MustFromRows([][]int{{0}})
		d := &SBC{r: 1, kind: SBCPairKind}
		d.res = NewDiagResolver("SBC(1x1,P=1)", pat)
		return d
	}
	_ = best
	return bestD
}

// Name implements Distribution.
func (d *SBC) Name() string {
	return fmt.Sprintf("SBC(%dx%d,P=%d)", d.r, d.r, d.nodesForKind())
}

func (d *SBC) nodesForKind() int {
	if d.r == 1 {
		return 1
	}
	if d.kind == SBCPairKind {
		return d.r * (d.r - 1) / 2
	}
	return d.r * d.r / 2
}

// Nodes implements Distribution.
func (d *SBC) Nodes() int { return d.nodesForKind() }

// Owner implements Distribution. For symmetric kernels only the lower
// triangle is stored; Owner mirrors upper-triangle queries.
func (d *SBC) Owner(i, j int) int { return d.res.Owner(i, j) }

// Pattern implements PatternDistribution; diagonal cells are Undefined.
func (d *SBC) Pattern() *pattern.Pattern { return d.res.Pattern() }
