package dag

import (
	"fmt"

	"anybc/internal/tile"
)

// Cholesky is the task graph of the right-looking tiled Cholesky
// factorization of the lower triangle of an mt×mt tile matrix:
//
//	for ℓ = 0..mt-1:
//	    POTRF(ℓ)
//	    TRSMChol(ℓ, i) for i > ℓ
//	    SYRK(ℓ, i) for i > ℓ
//	    GEMMChol(ℓ, i, j) for ℓ < j < i
//
// Like LU's, each ℓ is one iteration of its Program.
type Cholesky struct{ *Built }

// NewCholesky builds the Cholesky task graph for an mt×mt tile matrix.
func NewCholesky(mt int) *Cholesky {
	if mt <= 0 {
		panic(fmt.Sprintf("dag: invalid tile count %d", mt))
	}
	g := &Cholesky{}
	g.Built = Build(Program{Name: "Cholesky", Tiles: mt, Iterations: mt, Tasks: g.iteration,
		OutputTile: choleskyOutputTile, InputTiles: choleskyInputTiles, Flops: choleskyFlops})
	return g
}

// iteration submits iteration l in program order: the panel, then each
// trailing row's SYRK followed by its GEMMs.
func (g *Cholesky) iteration(l int, submit func(Task)) {
	l32, mt := int32(l), g.Tiles()
	submit(Task{Kind: POTRF, L: l32, I: l32, J: l32})
	for i := l + 1; i < mt; i++ {
		submit(Task{Kind: TRSMChol, L: l32, I: int32(i)})
	}
	for i := l + 1; i < mt; i++ {
		submit(Task{Kind: SYRK, L: l32, I: int32(i)})
		for j := l + 1; j < i; j++ {
			submit(Task{Kind: GEMMChol, L: l32, I: int32(i), J: int32(j)})
		}
	}
}

func choleskyOutputTile(t Task) (int, int) {
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

func choleskyInputTiles(t Task, visit func(i, j int)) {
	l := int(t.L)
	switch t.Kind {
	case POTRF:
	case TRSMChol:
		visit(l, l)
	case SYRK:
		visit(int(t.I), l)
	case GEMMChol:
		visit(int(t.I), l)
		visit(int(t.J), l)
	}
}

func choleskyFlops(t Task, b int) float64 {
	switch t.Kind {
	case POTRF:
		return tile.FlopsPotrf(b)
	case TRSMChol:
		return tile.FlopsTrsm(b)
	case SYRK:
		return tile.FlopsSyrk(b)
	default:
		return tile.FlopsGemm(b)
	}
}

// TotalFlops implements Graph as LU's does, summed by kind: mt POTRF,
// mt(mt−1)/2 TRSM and as many SYRK, C(mt, 3) GEMM.
func (g *Cholesky) TotalFlops(b int) float64 {
	mt := g.Tiles()
	panel, gemm := mt*(mt-1)/2, mt*(mt-1)*(mt-2)/6
	return float64(mt)*tile.FlopsPotrf(b) +
		float64(panel)*(tile.FlopsTrsm(b)+tile.FlopsSyrk(b)) +
		float64(gemm)*tile.FlopsGemm(b)
}
