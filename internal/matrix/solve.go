package matrix

import (
	"fmt"

	"anybc/internal/tile"
)

// RHS is a tiled right-hand-side block: one b×nrhs tile per tile row of the
// matrix. It is the storage for B in A·X = B and is overwritten by the
// solution X during the solves below.
type RHS []*tile.Tile

// NewRHS allocates an mt-tile right-hand side with b×nrhs tiles.
func NewRHS(mt, b, nrhs int) RHS {
	if mt <= 0 || b <= 0 || nrhs <= 0 {
		panic(fmt.Sprintf("matrix: invalid RHS shape mt=%d b=%d nrhs=%d", mt, b, nrhs))
	}
	r := make(RHS, mt)
	for i := range r {
		r[i] = tile.New(b, nrhs)
	}
	return r
}

// FillFunc sets every element from a generator of (global row, rhs column).
func (r RHS) FillFunc(f func(gi, k int) float64) {
	for ti, t := range r {
		for i := 0; i < t.Rows; i++ {
			for k := 0; k < t.Cols; k++ {
				t.Set(i, k, f(ti*t.Rows+i, k))
			}
		}
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference to s.
func (r RHS) MaxAbsDiff(s RHS) float64 {
	max := 0.0
	for i := range r {
		for k, v := range r[i].Data {
			d := v - s[i].Data[k]
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// MulLU computes B = A·X for a dense tiled matrix (helper for building solve
// test systems): out[i] = Σ_j A[i][j]·X[j].
func (a *Dense) MulRHS(x RHS) RHS {
	if a.MT != a.NT || len(x) != a.NT {
		panic("matrix: MulRHS shape mismatch")
	}
	out := make(RHS, a.MT)
	for i := 0; i < a.MT; i++ {
		out[i] = tile.New(x[0].Rows, x[0].Cols)
		for j := 0; j < a.NT; j++ {
			tile.Gemm(tile.NoTrans, tile.NoTrans, 1, a.Tile(i, j), x[j], 1, out[i])
		}
	}
	return out
}

// MulRHS computes B = A·X for the symmetric matrix (mirroring the upper
// triangle): out[i] = Σ_{j<=i} A[i][j]·X[j] + Σ_{j>i} A[j][i]ᵀ·X[j].
func (s *SymmetricLower) MulRHS(x RHS) RHS {
	if len(x) != s.MT {
		panic("matrix: MulRHS shape mismatch")
	}
	out := make(RHS, s.MT)
	for i := 0; i < s.MT; i++ {
		out[i] = tile.New(x[0].Rows, x[0].Cols)
		for j := 0; j <= i; j++ {
			tile.Gemm(tile.NoTrans, tile.NoTrans, 1, s.Tile(i, j), x[j], 1, out[i])
		}
		for j := i + 1; j < s.MT; j++ {
			tile.Gemm(tile.TransT, tile.NoTrans, 1, s.Tile(j, i), x[j], 1, out[i])
		}
	}
	return out
}

// SolveLU solves A·X = B in place on b, given the in-place unpivoted LU
// factors of A (as produced by FactorLU): forward substitution with the
// unit-lower L, then backward substitution with U. This is the sequential
// reference for the distributed solve in package runtime.
func SolveLU(fact *Dense, b RHS) {
	if fact.MT != fact.NT || len(b) != fact.MT {
		panic("matrix: SolveLU shape mismatch")
	}
	mt := fact.MT
	// Forward: Y[i] = B[i] − Σ_{j<i} L[i][j]·Y[j]; L(i,i) is unit lower.
	for i := 0; i < mt; i++ {
		for j := 0; j < i; j++ {
			tile.Gemm(tile.NoTrans, tile.NoTrans, -1, fact.Tile(i, j), b[j], 1, b[i])
		}
		tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.Unit, 1, fact.Tile(i, i), b[i])
	}
	// Backward: X[i] = U(i,i)⁻¹ (Y[i] − Σ_{j>i} U[i][j]·X[j]).
	for i := mt - 1; i >= 0; i-- {
		for j := i + 1; j < mt; j++ {
			tile.Gemm(tile.NoTrans, tile.NoTrans, -1, fact.Tile(i, j), b[j], 1, b[i])
		}
		tile.Trsm(tile.Left, tile.Upper, tile.NoTrans, tile.NonUnit, 1, fact.Tile(i, i), b[i])
	}
}

// SolveCholesky solves A·X = B in place on b, given the in-place Cholesky
// factor of A (as produced by FactorCholesky): L·Y = B then Lᵀ·X = Y.
func SolveCholesky(fact *SymmetricLower, b RHS) {
	if len(b) != fact.MT {
		panic("matrix: SolveCholesky shape mismatch")
	}
	mt := fact.MT
	for i := 0; i < mt; i++ {
		for j := 0; j < i; j++ {
			tile.Gemm(tile.NoTrans, tile.NoTrans, -1, fact.Tile(i, j), b[j], 1, b[i])
		}
		tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.NonUnit, 1, fact.Tile(i, i), b[i])
	}
	for i := mt - 1; i >= 0; i-- {
		for j := i + 1; j < mt; j++ {
			// X[i] -= L[j][i]ᵀ · X[j].
			tile.Gemm(tile.TransT, tile.NoTrans, -1, fact.Tile(j, i), b[j], 1, b[i])
		}
		tile.Trsm(tile.Left, tile.Lower, tile.TransT, tile.NonUnit, 1, fact.Tile(i, i), b[i])
	}
}
