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

// solveLayout holds the dense-id layout of the solve phase appended after a
// base factorization graph.
type solveLayout struct {
	mt   int
	nrhs int
	base int // NumTasks of the base graph
	// Bases of the five solve segments.
	ftrsmBase, fgemmBase, bcopyBase, bgemmBase, btrsmBase int
	s1                                                    []int // Σ_{k<i} (mt-1-k), for BGEMM row offsets
	total                                                 int
}

func newSolveLayout(mt, nrhs, base int) solveLayout {
	if nrhs <= 0 {
		panic(fmt.Sprintf("dag: invalid nrhs %d", nrhs))
	}
	half := mt * (mt - 1) / 2
	l := solveLayout{mt: mt, nrhs: nrhs, base: base, s1: make([]int, mt+1)}
	for i := 0; i < mt; i++ {
		l.s1[i+1] = l.s1[i] + mt - 1 - i
	}
	l.ftrsmBase = base
	l.fgemmBase = l.ftrsmBase + mt
	l.bcopyBase = l.fgemmBase + half
	l.bgemmBase = l.bcopyBase + mt
	l.btrsmBase = l.bgemmBase + half
	l.total = l.btrsmBase + mt
	return l
}

func (l *solveLayout) numTasks() int { return l.total }

func (l *solveLayout) id(t Task) int {
	i, j := int(t.I), int(t.J)
	switch t.Kind {
	case FTRSM:
		return l.ftrsmBase + i
	case FGEMM: // j < i, ordered by i then j
		return l.fgemmBase + i*(i-1)/2 + j
	case BCOPY:
		return l.bcopyBase + i
	case BGEMM: // j > i, ordered by i then j
		return l.bgemmBase + l.s1[i] + j - i - 1
	case BTRSM:
		return l.btrsmBase + i
	default:
		panic(fmt.Sprintf("dag: %v is not a solve task", t))
	}
}

func (l *solveLayout) taskOf(id int) Task {
	switch {
	case id < l.fgemmBase:
		i := id - l.ftrsmBase
		return Task{Kind: FTRSM, L: int32(i), I: int32(i)}
	case id < l.bcopyBase:
		rel := id - l.fgemmBase
		i := 1
		for (i+1)*i/2 <= rel {
			i++
		}
		j := rel - i*(i-1)/2
		return Task{Kind: FGEMM, L: int32(j), I: int32(i), J: int32(j)}
	case id < l.bgemmBase:
		i := id - l.bcopyBase
		return Task{Kind: BCOPY, L: int32(i), I: int32(i)}
	case id < l.btrsmBase:
		i, off := locate(l.s1, id-l.bgemmBase)
		j := off + i + 1
		return Task{Kind: BGEMM, L: int32(j), I: int32(i), J: int32(j)}
	default:
		i := id - l.btrsmBase
		return Task{Kind: BTRSM, L: int32(i), I: int32(i)}
	}
}

// outputTile returns the RHS tile a solve task writes.
func (l *solveLayout) outputTile(t Task) (int, int) {
	switch t.Kind {
	case FTRSM, FGEMM:
		return int(t.I), l.mt
	default:
		return int(t.I), l.mt + 1
	}
}

func (l *solveLayout) numDeps(t Task) int {
	i, j := int(t.I), int(t.J)
	switch t.Kind {
	case FTRSM:
		if i > 0 {
			return 2 // fact(i) + FGEMM(i, i-1)
		}
		return 1
	case FGEMM:
		if j > 0 {
			return 3 // FTRSM(j) + panel(i,j) + FGEMM(i, j-1)
		}
		return 2
	case BCOPY:
		return 1
	case BGEMM:
		return 3 // BTRSM(j) + panel + chain (BGEMM(i,j+1) or BCOPY(i))
	default: // BTRSM
		return 2 // fact(i) + chain (BGEMM(i,i+1) or BCOPY(i))
	}
}

func (l *solveLayout) flops(t Task, b int) float64 {
	bb := float64(b) * float64(b) * float64(l.nrhs)
	switch t.Kind {
	case FTRSM, BTRSM:
		return bb
	case FGEMM, BGEMM:
		return 2 * bb
	default: // BCOPY moves data but does no arithmetic
		return 0
	}
}

func (l *solveLayout) totalFlops(b int) float64 {
	bb := float64(b) * float64(b) * float64(l.nrhs)
	half := float64(l.mt * (l.mt - 1) / 2)
	return 2*float64(l.mt)*bb + 2*half*2*bb
}

// LUSolve is the combined graph of an LU factorization followed by the
// forward and backward substitutions for nrhs right-hand-side columns: the
// full distributed solution of A·X = B under one owner-computes schedule.
// RHS tile i is owned by the owner of diagonal tile (i, i); wrap the matrix
// distribution accordingly (see runtime.SolveLU).
type LUSolve struct {
	*LU
	lay solveLayout
}

// NewLUSolve builds the factor-and-solve graph for an mt×mt tile matrix and
// nrhs right-hand-side columns.
func NewLUSolve(mt, nrhs int) *LUSolve {
	base := NewLU(mt)
	return &LUSolve{LU: base, lay: newSolveLayout(mt, nrhs, base.NumTasks())}
}

// Name implements Graph.
func (g *LUSolve) Name() string { return "LU+solve" }

// NumTasks implements Graph.
func (g *LUSolve) NumTasks() int { return g.lay.numTasks() }

// NRHS returns the number of right-hand-side columns.
func (g *LUSolve) NRHS() int { return g.lay.nrhs }

// ID implements Graph.
func (g *LUSolve) ID(t Task) int {
	if t.Kind < FTRSM {
		return g.LU.ID(t)
	}
	return g.lay.id(t)
}

// TaskOf implements Graph.
func (g *LUSolve) TaskOf(id int) Task {
	if id < g.lay.base {
		return g.LU.TaskOf(id)
	}
	return g.lay.taskOf(id)
}

// Dependencies implements Graph.
func (g *LUSolve) Dependencies(t Task, visit func(Task)) {
	mt := g.lay.mt
	i, j := t.I, t.J
	switch t.Kind {
	case FTRSM:
		visit(Task{Kind: GETRF, L: i, I: i, J: i})
		if i > 0 {
			visit(Task{Kind: FGEMM, L: i - 1, I: i, J: i - 1})
		}
	case FGEMM:
		visit(Task{Kind: FTRSM, L: j, I: j})
		visit(Task{Kind: TRSMCol, L: j, I: i}) // produces matrix tile (i, j)
		if j > 0 {
			visit(Task{Kind: FGEMM, L: j - 1, I: i, J: j - 1})
		}
	case BCOPY:
		visit(Task{Kind: FTRSM, L: i, I: i})
	case BGEMM:
		visit(Task{Kind: BTRSM, L: j, I: j})
		visit(Task{Kind: TRSMRow, L: i, I: j}) // produces matrix tile (i, j)
		if int(j) < mt-1 {
			visit(Task{Kind: BGEMM, L: j + 1, I: i, J: j + 1})
		} else {
			visit(Task{Kind: BCOPY, L: i, I: i})
		}
	case BTRSM:
		visit(Task{Kind: GETRF, L: i, I: i, J: i})
		if int(i) < mt-1 {
			visit(Task{Kind: BGEMM, L: i + 1, I: i, J: i + 1})
		} else {
			visit(Task{Kind: BCOPY, L: i, I: i})
		}
	default:
		g.LU.Dependencies(t, visit)
	}
}

// NumDependencies implements Graph.
func (g *LUSolve) NumDependencies(t Task) int {
	if t.Kind < FTRSM {
		return g.LU.NumDependencies(t)
	}
	return g.lay.numDeps(t)
}

// Successors implements Graph.
func (g *LUSolve) Successors(t Task, visit func(Task)) {
	mt := g.lay.mt
	switch t.Kind {
	case GETRF:
		g.LU.Successors(t, visit)
		visit(Task{Kind: FTRSM, L: t.L, I: t.L})
		visit(Task{Kind: BTRSM, L: t.L, I: t.L})
	case TRSMCol:
		g.LU.Successors(t, visit)
		visit(Task{Kind: FGEMM, L: t.L, I: t.I, J: t.L})
	case TRSMRow:
		g.LU.Successors(t, visit)
		visit(Task{Kind: BGEMM, L: t.I, I: t.L, J: t.I})
	case GEMMLU:
		g.LU.Successors(t, visit)
	case FTRSM:
		i := int(t.I)
		for i2 := i + 1; i2 < mt; i2++ {
			visit(Task{Kind: FGEMM, L: t.I, I: int32(i2), J: t.I})
		}
		visit(Task{Kind: BCOPY, L: t.I, I: t.I})
	case FGEMM:
		if int(t.J)+1 < int(t.I) {
			visit(Task{Kind: FGEMM, L: t.J + 1, I: t.I, J: t.J + 1})
		} else {
			visit(Task{Kind: FTRSM, L: t.I, I: t.I})
		}
	case BCOPY:
		if int(t.I) < mt-1 {
			visit(Task{Kind: BGEMM, L: int32(mt - 1), I: t.I, J: int32(mt - 1)})
		} else {
			visit(Task{Kind: BTRSM, L: t.I, I: t.I})
		}
	case BGEMM:
		if int(t.J)-1 > int(t.I) {
			visit(Task{Kind: BGEMM, L: t.J - 1, I: t.I, J: t.J - 1})
		} else {
			visit(Task{Kind: BTRSM, L: t.I, I: t.I})
		}
	case BTRSM:
		j := int(t.I)
		for i := 0; i < j; i++ {
			visit(Task{Kind: BGEMM, L: t.I, I: int32(i), J: t.I})
		}
	}
}

// OutputTile implements Graph.
func (g *LUSolve) OutputTile(t Task) (int, int) {
	if t.Kind < FTRSM {
		return g.LU.OutputTile(t)
	}
	return g.lay.outputTile(t)
}

// InputTiles implements Graph.
func (g *LUSolve) InputTiles(t Task, visit func(i, j int)) {
	mt := g.lay.mt
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
		visit(i, j)
		visit(j, mt+1)
	default:
		g.LU.InputTiles(t, visit)
	}
}

// Flops implements Graph.
func (g *LUSolve) Flops(t Task, b int) float64 {
	if t.Kind < FTRSM {
		return g.LU.Flops(t, b)
	}
	return g.lay.flops(t, b)
}

// TotalFlops implements Graph.
func (g *LUSolve) TotalFlops(b int) float64 {
	return g.LU.TotalFlops(b) + g.lay.totalFlops(b)
}

// OutputBytes implements SizedGraph: RHS tiles are b×nrhs, matrix tiles b×b.
func (g *LUSolve) OutputBytes(t Task, b int) int {
	if t.Kind >= FTRSM {
		return 8 * b * g.lay.nrhs
	}
	return 8 * b * b
}
