package dist

import (
	"fmt"

	"anybc/internal/pattern"
)

// NewSTS builds an explicit symmetric distribution from a Steiner triple
// system — a concrete answer, for specific node counts, to the question the
// paper leaves open ("whether it is possible to find an explicit description
// of an efficient pattern in the symmetric case").
//
// Section V-B derives the empirical GCR&M cost limit √(3P/2) from a
// hypothetical regular pattern in which every node appears on v = 3 colrows
// and owns l = 6 cells. A Steiner triple system of order r (a set of triples
// of {0..r-1} covering every pair exactly once) realizes that pattern
// exactly: assign each triple {a, b, c} to one node owning the six cells
// (a,b), (b,a), (a,c), (c,a), (b,c), (c,b). Then
//
//   - P = r(r−1)/6 nodes, each owning exactly 6 cells (perfect balance),
//   - every colrow holds exactly (r−1)/2 distinct nodes, so the Cholesky
//     cost is z̄ = (r−1)/2 < √(3P/2) — beating both SBC (√(2P)) and the
//     GCR&M heuristic,
//
// at the price of existing only for r ≡ 1 or 3 (mod 6). This implementation
// uses the Bose construction (r ≡ 3 (mod 6)), giving P ∈ {1, 12, 35, 70,
// 117, 176, ...}. Notably P = 35 is one of the paper's experimental node
// counts: STS(15) gives cost 7.0 against 7.48 for GCR&M and 8 for the SBC
// fallback on 32 nodes. Diagonal cells are resolved at replication time like
// every symmetric scheme here.
//
// r must satisfy r ≡ 3 (mod 6), r ≥ 3 (Bose construction).
func NewSTS(r int) *DiagResolver {
	if r < 3 || r%6 != 3 {
		panic(fmt.Sprintf("dist: Bose STS needs r ≡ 3 (mod 6), got %d", r))
	}
	m := r / 3 // odd by construction
	point := func(x, c int) int { return c*m + x }
	inv2 := (m + 1) / 2 // inverse of 2 modulo odd m

	pat := pattern.New(r, r)
	node := 0
	assign := func(a, b, c int) {
		for _, e := range [][2]int{{a, b}, {b, a}, {a, c}, {c, a}, {b, c}, {c, b}} {
			if prev := pat.At(e[0], e[1]); prev != pattern.Undefined {
				panic(fmt.Sprintf("dist: STS pair (%d,%d) covered twice (nodes %d and %d)",
					e[0], e[1], prev, node))
			}
			pat.Set(e[0], e[1], node)
		}
		node++
	}
	// Type 1 triples: {(x,0), (x,1), (x,2)}.
	for x := 0; x < m; x++ {
		assign(point(x, 0), point(x, 1), point(x, 2))
	}
	// Type 2 triples: {(x,c), (y,c), ((x+y)/2, c+1)} for x < y.
	for c := 0; c < 3; c++ {
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				z := (x + y) * inv2 % m
				assign(point(x, c), point(y, c), point(z, (c+1)%3))
			}
		}
	}
	if want := r * (r - 1) / 6; node != want {
		panic(fmt.Sprintf("dist: STS built %d triples, want %d", node, want))
	}
	return NewDiagResolver(fmt.Sprintf("STS(%dx%d,P=%d)", r, r, node), pat)
}

// STSValidP reports whether a Bose STS distribution exists for exactly P
// nodes and returns its pattern size r (r ≡ 3 mod 6, P = r(r−1)/6).
func STSValidP(P int) (r int, ok bool) {
	for r := 3; r*(r-1)/6 <= P; r += 6 {
		if r*(r-1)/6 == P {
			return r, true
		}
	}
	return 0, false
}

// NewSTSForP builds the STS distribution for exactly P nodes, or reports
// that none exists.
func NewSTSForP(P int) (*DiagResolver, error) {
	r, ok := STSValidP(P)
	if !ok {
		return nil, fmt.Errorf("dist: no Bose STS distribution for P=%d (needs P = r(r-1)/6, r ≡ 3 mod 6)", P)
	}
	return NewSTS(r), nil
}
