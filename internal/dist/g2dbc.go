package dist

import (
	"fmt"
	"math"

	"anybc/internal/pattern"
)

// G2DBCParams returns the construction parameters of Section IV-A for P
// nodes: a = ⌈√P⌉, b = ⌈P/a⌉ and c = ab − P.
func G2DBCParams(P int) (a, b, c int) {
	if P <= 0 {
		panic(fmt.Sprintf("dist: invalid node count %d", P))
	}
	a = int(math.Ceil(math.Sqrt(float64(P))))
	// Guard against floating-point error on perfect squares.
	for a*a >= P && (a-1)*(a-1) >= P {
		a--
	}
	for a*a < P {
		a++
	}
	b = (P + a - 1) / a
	return a, b, a*b - P
}

// NewG2DBC builds the paper's Generalized 2D Block-Cyclic distribution
// (Section IV) for P nodes. For any P it is a perfectly balanced pattern of
// size b(b-1) × P in which every row holds exactly a distinct nodes (see
// G2DBCParams). Its communication cost is bounded by 2√P + 2/√P (Lemma 2),
// essentially matching the square 2DBC cost of 2√P that is only achievable
// when P is a perfect square.
//
// When c = 0 (P = p² or P = p(p+1)) the construction degenerates to the
// standard b×a 2DBC pattern, as noted in the paper.
func NewG2DBC(P int) *Cyclic {
	a, b, c := G2DBCParams(P)

	// Incomplete pattern IP: b×a, elements 0..P-1 row-major, the last c cells
	// of the last row undefined.
	ip := pattern.New(b, a)
	for n := 0; n < P; n++ {
		ip.Set(n/a, n%a, n)
	}

	var pat *pattern.Pattern
	if c == 0 {
		// Degenerate case: IP is complete and is itself the (2DBC) pattern.
		pat = ip
	} else {
		// P_i (1 ≤ i ≤ b-1): copy of IP whose undefined cells (b-1, j) for
		// j ≥ a-c are filled with the cell of row i in the same column.
		// LP: the first a-c columns of IP.
		// Full pattern: b-1 vertical strips; strip i is b rows of
		// [P_i | P_i | ... (b-1 copies) | LP], totalling (b-1)a + (a-c) = P
		// columns.
		pat = pattern.New(b*(b-1), P)
		for i := 1; i <= b-1; i++ {
			top := (i - 1) * b
			for row := 0; row < b; row++ {
				col := 0
				for copyIdx := 0; copyIdx < b-1; copyIdx++ {
					for j := 0; j < a; j++ {
						v := ip.At(row, j)
						if v == pattern.Undefined {
							v = ip.At(i-1, j)
						}
						pat.Set(top+row, col, v)
						col++
					}
				}
				for j := 0; j < a-c; j++ {
					pat.Set(top+row, col, ip.At(row, j))
					col++
				}
			}
		}
	}
	return &Cyclic{name: fmt.Sprintf("G-2DBC(P=%d)", P), p: pat, n: P}
}

// CostBound returns the Lemma 2 upper bound 2√P + 2/√P on the LU
// communication cost of the G-2DBC pattern for P nodes.
func CostBound(P int) float64 {
	s := math.Sqrt(float64(P))
	return 2*s + 2/s
}
