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
//
// Each ℓ is one iteration of its Program: an output is read in its own
// iteration (the panels by the updates) or the next (an update by the
// kernel that writes the same tile at ℓ+1).
type LU struct{ *Built }

// NewLU builds the LU task graph for an mt×mt tile matrix.
func NewLU(mt int) *LU {
	if mt <= 0 {
		panic(fmt.Sprintf("dag: invalid tile count %d", mt))
	}
	g := &LU{}
	g.Built = Build(Program{Name: "LU", Tiles: mt, Iterations: mt, Tasks: g.iteration,
		OutputTile: luOutputTile, InputTiles: luInputTiles, Flops: luFlops})
	return g
}

// iteration submits iteration l in program order: the loop nest of the type
// comment, the two solves of a row index adjacent.
func (g *LU) iteration(l int, submit func(Task)) {
	l32, mt := int32(l), g.Tiles()
	submit(Task{Kind: GETRF, L: l32, I: l32, J: l32})
	for i := l + 1; i < mt; i++ {
		submit(Task{Kind: TRSMCol, L: l32, I: int32(i)})
		submit(Task{Kind: TRSMRow, L: l32, I: int32(i)})
	}
	for i := l + 1; i < mt; i++ {
		for j := l + 1; j < mt; j++ {
			submit(Task{Kind: GEMMLU, L: l32, I: int32(i), J: int32(j)})
		}
	}
}

func luOutputTile(t Task) (int, int) {
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

func luInputTiles(t Task, visit func(i, j int)) {
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

func luFlops(t Task, b int) float64 {
	switch t.Kind {
	case GETRF:
		return tile.FlopsGetrf(b)
	case TRSMCol, TRSMRow:
		return tile.FlopsTrsm(b)
	default:
		return tile.FlopsGemm(b)
	}
}

// TotalFlops implements Graph, summed by kind: mt GETRF, mt(mt−1) TRSM and
// Σ_{k<mt} k² GEMM. The figures divide it by a makespan, so it is one
// formula, not a per-task sum, whose last bits would move them.
func (g *LU) TotalFlops(b int) float64 {
	mt := g.Tiles()
	trsm, gemm := mt*(mt-1)/2, (mt-1)*mt*(2*mt-1)/6
	return float64(mt)*tile.FlopsGetrf(b) + 2*float64(trsm)*tile.FlopsTrsm(b) + float64(gemm)*tile.FlopsGemm(b)
}
