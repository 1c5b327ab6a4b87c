package dag

import "fmt"

// Solve-phase task kinds, shared by the LU and Cholesky factor-and-solve
// graphs. The right-hand side B (one b×nrhs tile per tile row) is addressed
// as virtual tile column mt: the forward-phase value Y[i] lives at tile
// (i, mt) and the backward-phase value X[i] at tile (i, mt+1), so each tile
// version is published exactly once (after FTRSM(i) and BTRSM(i)
// respectively), matching the runtime's one-version-per-tile protocol.
const (
	// FTRSM solves the diagonal block of the forward substitution on RHS
	// tile i.
	FTRSM Kind = iota + 8
	// FGEMM applies the forward update Y[i] -= A[i][j]·Y[j] (j < i).
	FGEMM
	// BCOPY seeds the backward phase: X[i] := Y[i].
	BCOPY
	// BGEMM applies the backward update X[i] -= U[i][j]·X[j] (LU, j > i) or
	// X[i] -= L[j][i]ᵀ·X[j] (Cholesky).
	BGEMM
	// BTRSM solves the diagonal block of the backward substitution.
	BTRSM
)

func solveKindString(k Kind) (string, bool) {
	switch k {
	case FTRSM:
		return "FTRSM", true
	case FGEMM:
		return "FGEMM", true
	case BCOPY:
		return "BCOPY", true
	case BGEMM:
		return "BGEMM", true
	case BTRSM:
		return "BTRSM", true
	}
	return "", false
}

// withSolve appends the forward and backward substitutions for nrhs
// right-hand-side columns to the factorization program fact, as one program
// that states no iterations. Forward, row i gathers its updates and is
// solved, by increasing i; backward, X is seeded from Y, then each solved
// X[j], by decreasing j, is eliminated from the rows above it — so row i
// absorbs columns mt-1 down to i+1, in that order.
// panel maps the (row, column) of a backward update to the factor tile it
// reads: (i, j) for LU's U, the transposed (j, i) for Cholesky's Lᵀ.
func withSolve(fact Program, nrhs int, panel func(i, j int) (int, int)) Program {
	if nrhs <= 0 {
		panic(fmt.Sprintf("dag: invalid nrhs %d", nrhs))
	}
	mt := fact.Tiles
	solve := func(t Task) bool { return t.Kind >= FTRSM }
	return Program{
		Name:  fact.Name + "+solve",
		Tiles: mt,
		Tasks: func(_ int, submit func(Task)) {
			fact.forEach(submit)
			for i := 0; i < mt; i++ {
				for j := 0; j < i; j++ {
					submit(Task{Kind: FGEMM, L: int32(j), I: int32(i), J: int32(j)})
				}
				submit(Task{Kind: FTRSM, L: int32(i), I: int32(i)})
			}
			for i := 0; i < mt; i++ {
				submit(Task{Kind: BCOPY, L: int32(i), I: int32(i)})
			}
			for j := mt - 1; j >= 0; j-- {
				submit(Task{Kind: BTRSM, L: int32(j), I: int32(j)})
				for i := 0; i < j; i++ {
					submit(Task{Kind: BGEMM, L: int32(j), I: int32(i), J: int32(j)})
				}
			}
		},
		OutputTile: func(t Task) (int, int) {
			switch {
			case !solve(t):
				return fact.OutputTile(t)
			case t.Kind == FTRSM || t.Kind == FGEMM:
				return int(t.I), mt
			default:
				return int(t.I), mt + 1
			}
		},
		InputTiles: func(t Task, visit func(i, j int)) {
			i, j := int(t.I), int(t.J)
			switch t.Kind {
			case FTRSM, BTRSM:
				visit(i, i)
			case FGEMM:
				visit(i, j)
				visit(j, mt)
			case BCOPY:
				visit(i, mt)
			case BGEMM:
				visit(panel(i, j))
				visit(j, mt+1)
			default:
				fact.InputTiles(t, visit)
			}
		},
		Flops: func(t Task, b int) float64 {
			bb := float64(b) * float64(b) * float64(nrhs)
			switch t.Kind {
			case FTRSM, BTRSM:
				return bb
			case FGEMM, BGEMM:
				return 2 * bb
			case BCOPY: // moves data but does no arithmetic
				return 0
			default:
				return fact.Flops(t, b)
			}
		},
		// RHS tiles are b×nrhs, matrix tiles b×b.
		OutputBytes: func(t Task, b int) int {
			if solve(t) {
				return 8 * b * nrhs
			}
			return 8 * b * b
		},
	}
}

// NewLUSolve builds the combined graph of the LU factorization of an mt×mt
// tile matrix followed by the forward and backward substitutions for nrhs
// right-hand-side columns: the full distributed solution of A·X = B under one
// owner-computes schedule. RHS tile i is owned by the owner of diagonal tile
// (i, i); wrap the matrix distribution accordingly (see runtime.SolveLU).
func NewLUSolve(mt, nrhs int) *Built {
	return Build(withSolve(NewLU(mt).Program(), nrhs, func(i, j int) (int, int) { return i, j }))
}

// NewCholeskySolve builds the combined graph of the Cholesky factorization of
// the lower triangle of an mt×mt tile matrix followed by the two triangular
// substitutions (L·Y = B, then Lᵀ·X = Y) for nrhs right-hand-side columns.
// The backward phase reads the transposed panel tiles (j, i), so only the
// lower triangle is ever touched, as in the factorization itself.
func NewCholeskySolve(mt, nrhs int) *Built {
	return Build(withSolve(NewCholesky(mt).Program(), nrhs, func(i, j int) (int, int) { return j, i }))
}
