package dag

import "fmt"

// CholeskyLeft is the task graph of the *left-looking* tiled Cholesky
// variant: instead of eagerly updating the whole trailing matrix after each
// panel (right-looking), column k accumulates all its updates just before
// its panel is factorized:
//
//	for k = 0..mt-1:
//	    SYRK(k, j):      A[k][k] -= A[k][j]·A[k][j]ᵀ   for j < k
//	    POTRF(k)
//	    GEMMChol(i,k,j): A[i][k] -= A[i][j]·A[k][j]ᵀ   for j < k < i
//	    TRSMChol(k, i):  A[i][k] := A[i][k]·L(k,k)⁻ᵀ   for i > k
//
// The task set is a relabeling of the right-looking one (same kinds, same
// kernels, same per-tile update order — so results are bitwise identical),
// and the owner-computes communication *volume* is identical too; what
// changes is *when* tiles are needed, i.e. the overlap structure. The graph
// exists to show that the paper's distribution comparisons do not hinge on
// the right-looking variant.
//
// Task encodings: SYRK{L:j, I:k} updates (k,k) with column j;
// GEMMChol{L:j, I:i, J:k} updates (i,k) with column j; POTRF and TRSMChol
// match the right-looking encodings.
type CholeskyLeft struct {
	mt                           int
	trsmBase, syrkBase, gemmBase int
	s1                           []int // s1[k] = Σ_{l<k} (mt-1-l), TRSM offsets
	tri                          []int // tri[k] = k(k-1)/2, SYRK offsets
	tet                          []int // tet[i] = C(i,3), GEMM offsets by row i
}

// NewCholeskyLeft builds the left-looking Cholesky graph for an mt×mt tile
// matrix.
func NewCholeskyLeft(mt int) *CholeskyLeft {
	if mt <= 0 {
		panic(fmt.Sprintf("dag: invalid tile count %d", mt))
	}
	g := &CholeskyLeft{
		mt:  mt,
		s1:  make([]int, mt+1),
		tri: make([]int, mt+1),
		tet: make([]int, mt+1),
	}
	for k := 0; k < mt; k++ {
		g.s1[k+1] = g.s1[k] + mt - 1 - k
		g.tri[k+1] = g.tri[k] + k
		g.tet[k+1] = g.tet[k] + k*(k-1)/2
	}
	g.trsmBase = mt
	g.syrkBase = g.trsmBase + g.s1[mt]
	g.gemmBase = g.syrkBase + g.tri[mt]
	return g
}

// Name implements Graph.
func (g *CholeskyLeft) Name() string { return "Cholesky-left" }

// Tiles implements Graph.
func (g *CholeskyLeft) Tiles() int { return g.mt }

// NumTasks implements Graph.
func (g *CholeskyLeft) NumTasks() int { return g.gemmBase + g.tet[g.mt] }

// ID implements Graph.
func (g *CholeskyLeft) ID(t Task) int {
	switch t.Kind {
	case POTRF:
		return int(t.L)
	case TRSMChol:
		k := int(t.L)
		return g.trsmBase + g.s1[k] + int(t.I) - k - 1
	case SYRK:
		k, j := int(t.I), int(t.L)
		return g.syrkBase + g.tri[k] + j
	case GEMMChol:
		i, k, j := int(t.I), int(t.J), int(t.L)
		return g.gemmBase + g.tet[i] + g.tri[k] + j
	default:
		panic(fmt.Sprintf("dag: task %v is not a left-looking Cholesky task", t))
	}
}

// TaskOf implements Graph.
func (g *CholeskyLeft) TaskOf(id int) Task {
	switch {
	case id < g.trsmBase:
		return Task{Kind: POTRF, L: int32(id), I: int32(id), J: int32(id)}
	case id < g.syrkBase:
		k, off := locate(g.s1, id-g.trsmBase)
		return Task{Kind: TRSMChol, L: int32(k), I: int32(k + 1 + off)}
	case id < g.gemmBase:
		k, j := locate(g.tri, id-g.syrkBase)
		return Task{Kind: SYRK, L: int32(j), I: int32(k)}
	default:
		i, rest := locate(g.tet, id-g.gemmBase)
		k, j := locate(g.tri, rest)
		return Task{Kind: GEMMChol, L: int32(j), I: int32(i), J: int32(k)}
	}
}

// Dependencies implements Graph.
func (g *CholeskyLeft) Dependencies(t Task, visit func(Task)) {
	switch t.Kind {
	case POTRF:
		if k := t.L; k > 0 {
			visit(Task{Kind: SYRK, L: k - 1, I: k})
		}
	case TRSMChol:
		k := t.L
		visit(Task{Kind: POTRF, L: k, I: k, J: k})
		if k > 0 {
			visit(Task{Kind: GEMMChol, L: k - 1, I: t.I, J: k})
		}
	case SYRK:
		k, j := t.I, t.L
		visit(Task{Kind: TRSMChol, L: j, I: k})
		if j > 0 {
			visit(Task{Kind: SYRK, L: j - 1, I: k})
		}
	case GEMMChol:
		i, k, j := t.I, t.J, t.L
		visit(Task{Kind: TRSMChol, L: j, I: i})
		visit(Task{Kind: TRSMChol, L: j, I: k})
		if j > 0 {
			visit(Task{Kind: GEMMChol, L: j - 1, I: i, J: k})
		}
	}
}

// NumDependencies implements Graph.
func (g *CholeskyLeft) NumDependencies(t Task) int {
	switch t.Kind {
	case POTRF:
		if t.L > 0 {
			return 1
		}
		return 0
	case TRSMChol, SYRK:
		if t.L > 0 {
			return 2
		}
		return 1
	default:
		if t.L > 0 {
			return 3
		}
		return 2
	}
}

// Successors implements Graph.
func (g *CholeskyLeft) Successors(t Task, visit func(Task)) {
	mt := g.mt
	switch t.Kind {
	case POTRF:
		k := int(t.L)
		for i := k + 1; i < mt; i++ {
			visit(Task{Kind: TRSMChol, L: t.L, I: int32(i)})
		}
	case TRSMChol:
		// Tile (i, k) is final; it feeds SYRK(i, k), the i-row GEMMs with
		// later target columns, and the GEMMs of lower rows targeting
		// column i.
		k, i := t.L, t.I
		visit(Task{Kind: SYRK, L: k, I: i})
		for k2 := i + 1; int(k2) < mt; k2++ {
			// (i, k) as second operand: targets column i of rows k2 > i.
			visit(Task{Kind: GEMMChol, L: k, I: k2, J: i})
		}
		for k2 := k + 1; k2 < i; k2++ {
			// (i, k) as first operand: targets (i, k2) for k < k2 < i.
			visit(Task{Kind: GEMMChol, L: k, I: i, J: k2})
		}
	case SYRK:
		k, j := t.I, t.L
		if int(j) < int(k)-1 {
			visit(Task{Kind: SYRK, L: j + 1, I: k})
		} else {
			visit(Task{Kind: POTRF, L: k, I: k, J: k})
		}
	case GEMMChol:
		i, k, j := t.I, t.J, t.L
		if int(j) < int(k)-1 {
			visit(Task{Kind: GEMMChol, L: j + 1, I: i, J: k})
		} else {
			visit(Task{Kind: TRSMChol, L: k, I: i})
		}
	}
}

// OutputTile implements Graph.
func (g *CholeskyLeft) OutputTile(t Task) (int, int) {
	switch t.Kind {
	case POTRF:
		return int(t.L), int(t.L)
	case TRSMChol:
		return int(t.I), int(t.L)
	case SYRK:
		return int(t.I), int(t.I)
	default:
		return int(t.I), int(t.J)
	}
}

// InputTiles implements Graph.
func (g *CholeskyLeft) InputTiles(t Task, visit func(i, j int)) {
	switch t.Kind {
	case POTRF:
	case TRSMChol:
		visit(int(t.L), int(t.L))
	case SYRK:
		visit(int(t.I), int(t.L))
	case GEMMChol:
		visit(int(t.I), int(t.L))
		visit(int(t.J), int(t.L))
	}
}

// Flops implements Graph; identical kernels to the right-looking variant.
func (g *CholeskyLeft) Flops(t Task, b int) float64 {
	return (&Cholesky{}).Flops(t, b)
}

// TotalFlops implements Graph.
func (g *CholeskyLeft) TotalFlops(b int) float64 {
	return NewCholesky(g.mt).TotalFlops(b)
}
