package dag

import (
	"fmt"

	"anybc/internal/tile"
)

// GEMM-operation task kinds: the classical matrix product C = C + A·B, the
// kernel for which the communication lower bounds of Section II-A
// (Hong–Kung, Irony et al.) are stated. Like the SYRK graph, the input
// matrices enter through publish-only tasks that model their initial
// distribution.
const (
	// GemmA publishes input tile A[i][k].
	GemmA Kind = iota + 24
	// GemmB publishes input tile B[k][j].
	GemmB
	// GemmUpd accumulates C[i][j] += A[i][k]·B[k][j].
	GemmUpd
)

// GEMMOp is the task graph of the tiled product C (mt×nt) += A (mt×kt) ·
// B (kt×nt). Tile coordinates: C at (i, j); A at (i, nt+k); B at (mt+k, j) —
// three disjoint regions, so one owner map covers all operands (see
// runtime.GEMM for the standard placement).
//
// Under owner-computes, A[i][k] must reach the owners of C row i and B[k][j]
// the owners of C column j, so the total volume is
// mt·kt·(x̄_C − 1) + kt·nt·(ȳ_C − 1): exactly the row/column distinct-node
// counts the paper's LU metric is built from. The G-2DBC pattern therefore
// minimizes GEMM communication for any P, just as it does for LU.
type GEMMOp struct{ *Built }

// NewGEMMOp builds the product task graph. GemmA stores (i, k) in (I, L);
// GemmB stores (k, j) in (L, J); GemmUpd stores (i, j, k) in (I, J, L).
func NewGEMMOp(mt, nt, kt int) *GEMMOp {
	if mt <= 0 || nt <= 0 || kt <= 0 {
		panic(fmt.Sprintf("dag: invalid GEMM shape %dx%dx%d", mt, nt, kt))
	}
	return &GEMMOp{Build(Program{
		Name:  "GEMM",
		Tiles: mt, // the C row dimension
		Tasks: func(submit func(Task)) {
			for i := 0; i < mt; i++ {
				for k := 0; k < kt; k++ {
					submit(Task{Kind: GemmA, L: int32(k), I: int32(i)})
				}
			}
			for k := 0; k < kt; k++ {
				for j := 0; j < nt; j++ {
					submit(Task{Kind: GemmB, L: int32(k), J: int32(j)})
				}
			}
			for k := 0; k < kt; k++ {
				for i := 0; i < mt; i++ {
					for j := 0; j < nt; j++ {
						submit(Task{Kind: GemmUpd, L: int32(k), I: int32(i), J: int32(j)})
					}
				}
			}
		},
		OutputTile: func(t Task) (int, int) {
			switch t.Kind {
			case GemmA:
				return int(t.I), nt + int(t.L)
			case GemmB:
				return mt + int(t.L), int(t.J)
			default:
				return int(t.I), int(t.J)
			}
		},
		InputTiles: func(t Task, visit func(i, j int)) {
			if t.Kind == GemmUpd {
				visit(int(t.I), nt+int(t.L))
				visit(mt+int(t.L), int(t.J))
			}
		},
		Flops: func(t Task, b int) float64 {
			if t.Kind != GemmUpd {
				return 0
			}
			return tile.FlopsGemm(b)
		},
	})}
}
