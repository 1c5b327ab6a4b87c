package dag

import (
	"fmt"

	"anybc/internal/tile"
)

// LU is the task graph of the right-looking tiled unpivoted LU factorization
// of an mt×mt tile matrix:
//
//	for ℓ = 0..mt-1:
//	    GETRF(ℓ)
//	    TRSMCol(ℓ, i) for i > ℓ        TRSMRow(ℓ, j) for j > ℓ
//	    GEMMLU(ℓ, i, j) for i, j > ℓ
type LU struct {
	mt int
	// Prefix sums for dense task ids.
	trsmColBase, trsmRowBase, gemmBase int
	s1                                 []int // s1[l] = Σ_{k<l} (mt-1-k)
	s2                                 []int // s2[l] = Σ_{k<l} (mt-1-k)²
}

// NewLU builds the LU task graph for an mt×mt tile matrix.
func NewLU(mt int) *LU {
	if mt <= 0 {
		panic(fmt.Sprintf("dag: invalid tile count %d", mt))
	}
	g := &LU{mt: mt, s1: make([]int, mt+1), s2: make([]int, mt+1)}
	for l := 0; l < mt; l++ {
		k := mt - 1 - l
		g.s1[l+1] = g.s1[l] + k
		g.s2[l+1] = g.s2[l] + k*k
	}
	g.trsmColBase = mt
	g.trsmRowBase = g.trsmColBase + g.s1[mt]
	g.gemmBase = g.trsmRowBase + g.s1[mt]
	return g
}

// Name implements Graph.
func (g *LU) Name() string { return "LU" }

// Program returns the factorization as a sequential task stream. The closed
// forms below are what Build infers from it (TestClosedFormsMatchInference);
// they are kept because a paper-scale graph is simulated without being
// stored.
func (g *LU) Program() Program {
	return Program{Name: g.Name(), Tiles: g.mt, Tasks: g.ForEachTask,
		OutputTile: g.OutputTile, InputTiles: g.InputTiles, Flops: g.Flops}
}

// ForEachTask visits the tasks in program order: the loop nest of the type
// comment, the two solves of a row index adjacent.
func (g *LU) ForEachTask(visit func(Task)) {
	for l := 0; l < g.mt; l++ {
		l32 := int32(l)
		visit(Task{Kind: GETRF, L: l32, I: l32, J: l32})
		for i := l + 1; i < g.mt; i++ {
			visit(Task{Kind: TRSMCol, L: l32, I: int32(i)})
			visit(Task{Kind: TRSMRow, L: l32, I: int32(i)})
		}
		for i := l + 1; i < g.mt; i++ {
			for j := l + 1; j < g.mt; j++ {
				visit(Task{Kind: GEMMLU, L: l32, I: int32(i), J: int32(j)})
			}
		}
	}
}

// Tiles implements Graph.
func (g *LU) Tiles() int { return g.mt }

// NumTasks implements Graph.
func (g *LU) NumTasks() int { return g.gemmBase + g.s2[g.mt] }

// ID implements Graph.
func (g *LU) ID(t Task) int {
	l := int(t.L)
	switch t.Kind {
	case GETRF:
		return l
	case TRSMCol:
		return g.trsmColBase + g.s1[l] + int(t.I) - l - 1
	case TRSMRow:
		return g.trsmRowBase + g.s1[l] + int(t.I) - l - 1
	case GEMMLU:
		w := g.mt - 1 - l
		return g.gemmBase + g.s2[l] + (int(t.I)-l-1)*w + int(t.J) - l - 1
	default:
		panic(fmt.Sprintf("dag: task %v is not an LU task", t))
	}
}

// TaskOf implements Graph.
func (g *LU) TaskOf(id int) Task {
	switch {
	case id < g.trsmColBase:
		return Task{Kind: GETRF, L: int32(id), I: int32(id), J: int32(id)}
	case id < g.trsmRowBase:
		l, off := locate(g.s1, id-g.trsmColBase)
		return Task{Kind: TRSMCol, L: int32(l), I: int32(l + 1 + off)}
	case id < g.gemmBase:
		l, off := locate(g.s1, id-g.trsmRowBase)
		return Task{Kind: TRSMRow, L: int32(l), I: int32(l + 1 + off)}
	default:
		l, rel := locate(g.s2, id-g.gemmBase)
		w := g.mt - 1 - l
		return Task{Kind: GEMMLU, L: int32(l), I: int32(l + 1 + rel/w), J: int32(l + 1 + rel%w)}
	}
}

// Dependencies implements Graph.
func (g *LU) Dependencies(t Task, visit func(Task)) {
	l := t.L
	switch t.Kind {
	case GETRF:
		if l > 0 {
			visit(Task{Kind: GEMMLU, L: l - 1, I: l, J: l})
		}
	case TRSMCol:
		visit(Task{Kind: GETRF, L: l, I: l, J: l})
		if l > 0 {
			visit(Task{Kind: GEMMLU, L: l - 1, I: t.I, J: l})
		}
	case TRSMRow:
		visit(Task{Kind: GETRF, L: l, I: l, J: l})
		if l > 0 {
			visit(Task{Kind: GEMMLU, L: l - 1, I: l, J: t.I})
		}
	case GEMMLU:
		visit(Task{Kind: TRSMCol, L: l, I: t.I})
		visit(Task{Kind: TRSMRow, L: l, I: t.J})
		if l > 0 {
			visit(Task{Kind: GEMMLU, L: l - 1, I: t.I, J: t.J})
		}
	}
}

// NumDependencies implements Graph.
func (g *LU) NumDependencies(t Task) int {
	switch t.Kind {
	case GETRF:
		if t.L > 0 {
			return 1
		}
		return 0
	case TRSMCol, TRSMRow:
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
func (g *LU) Successors(t Task, visit func(Task)) {
	l := int(t.L)
	mt := g.mt
	switch t.Kind {
	case GETRF:
		for i := l + 1; i < mt; i++ {
			visit(Task{Kind: TRSMCol, L: t.L, I: int32(i)})
			visit(Task{Kind: TRSMRow, L: t.L, I: int32(i)})
		}
	case TRSMCol:
		for j := l + 1; j < mt; j++ {
			visit(Task{Kind: GEMMLU, L: t.L, I: t.I, J: int32(j)})
		}
	case TRSMRow:
		for i := l + 1; i < mt; i++ {
			visit(Task{Kind: GEMMLU, L: t.L, I: int32(i), J: t.I})
		}
	case GEMMLU:
		i, j := t.I, t.J
		next := t.L + 1
		switch {
		case int(i) == l+1 && int(j) == l+1:
			visit(Task{Kind: GETRF, L: next, I: next, J: next})
		case int(j) == l+1:
			visit(Task{Kind: TRSMCol, L: next, I: i})
		case int(i) == l+1:
			visit(Task{Kind: TRSMRow, L: next, I: j})
		default:
			visit(Task{Kind: GEMMLU, L: next, I: i, J: j})
		}
	}
}

// OutputTile implements Graph.
func (g *LU) OutputTile(t Task) (int, int) {
	switch t.Kind {
	case GETRF:
		return int(t.L), int(t.L)
	case TRSMCol:
		return int(t.I), int(t.L)
	case TRSMRow:
		return int(t.L), int(t.I)
	default:
		return int(t.I), int(t.J)
	}
}

// InputTiles implements Graph.
func (g *LU) InputTiles(t Task, visit func(i, j int)) {
	l := int(t.L)
	switch t.Kind {
	case GETRF:
	case TRSMCol, TRSMRow:
		visit(l, l)
	case GEMMLU:
		visit(int(t.I), l)
		visit(l, int(t.J))
	}
}

// Flops implements Graph.
func (g *LU) Flops(t Task, b int) float64 {
	switch t.Kind {
	case GETRF:
		return tile.FlopsGetrf(b)
	case TRSMCol, TRSMRow:
		return tile.FlopsTrsm(b)
	default:
		return tile.FlopsGemm(b)
	}
}

// TotalFlops implements Graph.
func (g *LU) TotalFlops(b int) float64 {
	mt := g.mt
	return float64(mt)*tile.FlopsGetrf(b) +
		2*float64(g.s1[mt])*tile.FlopsTrsm(b) +
		float64(g.s2[mt])*tile.FlopsGemm(b)
}
