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

// pairIndex numbers the unordered pairs {i, j}, i < j, of {0..r-1}
// lexicographically.
func pairIndex(r, i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*r-i-1)/2 + (j - i - 1)
}

// sbc names a Symmetric Block Cyclic distribution: a square r×r pattern whose
// off-diagonal cells pair up symmetric positions on shared nodes, and whose
// diagonal cells are left undefined and resolved at replication time (the
// extended-SBC diagonal rule).
func sbc(r, P int, pat *pattern.Pattern) *DiagResolver {
	return NewDiagResolver(fmt.Sprintf("SBC(%dx%d,P=%d)", r, r, P), pat)
}

// NewSBCPair builds the SBC distribution for P = r(r-1)/2 nodes, r ≥ 2.
func NewSBCPair(r int) *DiagResolver {
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
	return sbc(r, r*(r-1)/2, pat)
}

// NewSBCEven builds the SBC distribution for P = r²/2 nodes, r even, r ≥ 2.
func NewSBCEven(r int) *DiagResolver {
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
	}
	for key, n := range id {
		pat.Set(key[0], key[1], n)
		pat.Set(key[1], key[0], n)
	}
	return sbc(r, r*r/2, pat)
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
func NewSBC(P int) (*DiagResolver, error) {
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
func BestSBCAtMost(P int) *DiagResolver {
	if P < 1 {
		panic(fmt.Sprintf("dist: invalid node count %d", P))
	}
	for q := P; ; q-- {
		if d, err := NewSBC(q); err == nil {
			return d // P = 1 is the r = 2 pair, so q never drops below 1
		}
	}
}
