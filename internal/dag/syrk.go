package dag

import (
	"fmt"

	"anybc/internal/tile"
)

// SYRK-operation task kinds. The paper recalls (Section II-A) that the SBC
// distribution was designed for the symmetric kernels — Cholesky *and* the
// symmetric rank-k update C = A·Aᵀ — so this graph lets the same
// distributions be evaluated on the second kernel.
const (
	// AInit publishes input tile A[i][k] from its owner (no arithmetic);
	// it models the initial distribution of A feeding the update sweeps.
	AInit Kind = iota + 16
	// SYRKUpd accumulates C[i][i] += A[i][k]·A[i][k]ᵀ.
	SYRKUpd
	// GEMMUpd accumulates C[i][j] += A[i][k]·A[j][k]ᵀ (j < i).
	GEMMUpd
)

// SYRKOp is the task graph of the tiled symmetric rank-k update
// C = C + A·Aᵀ, with C an mt×mt symmetric matrix (lower storage) and A an
// mt×kt tile matrix. C tiles live at coordinates (i, j), j ≤ i < mt; A tiles
// are addressed as virtual columns: A[i][k] is tile (i, mt+k).
//
// Under the owner-computes rule, A[i][k] must reach the owners of row i and
// column i of C — a colrow communication pattern, which is exactly why
// symmetric distributions (SBC, GCR&M) beat 2DBC on this kernel: the
// per-sweep volume is proportional to z̄ − 1.
type SYRKOp struct{ *Built }

// NewSYRKOp builds the SYRK task graph. GEMMUpd tasks store (i, j) in I/J
// and the sweep k in L; AInit and SYRKUpd store the row in I and the sweep
// in L.
func NewSYRKOp(mt, kt int) *SYRKOp {
	if mt <= 0 || kt <= 0 {
		panic(fmt.Sprintf("dag: invalid SYRK shape mt=%d kt=%d", mt, kt))
	}
	return &SYRKOp{Build(Program{
		Name:  "SYRK",
		Tiles: mt, // the C dimension
		Tasks: func(submit func(Task)) {
			for i := 0; i < mt; i++ {
				for k := 0; k < kt; k++ {
					submit(Task{Kind: AInit, L: int32(k), I: int32(i)})
				}
			}
			for k := 0; k < kt; k++ {
				for i := 0; i < mt; i++ {
					submit(Task{Kind: SYRKUpd, L: int32(k), I: int32(i)})
					for j := 0; j < i; j++ {
						submit(Task{Kind: GEMMUpd, L: int32(k), I: int32(i), J: int32(j)})
					}
				}
			}
		},
		// AInit "writes" its A tile (publishing it); the updates write C
		// tiles.
		OutputTile: func(t Task) (int, int) {
			switch t.Kind {
			case AInit:
				return int(t.I), mt + int(t.L)
			case SYRKUpd:
				return int(t.I), int(t.I)
			default:
				return int(t.I), int(t.J)
			}
		},
		InputTiles: func(t Task, visit func(i, j int)) {
			switch t.Kind {
			case AInit:
			case SYRKUpd:
				visit(int(t.I), mt+int(t.L))
			default:
				visit(int(t.I), mt+int(t.L))
				visit(int(t.J), mt+int(t.L))
			}
		},
		Flops: func(t Task, b int) float64 {
			switch t.Kind {
			case AInit:
				return 0
			case SYRKUpd:
				return tile.FlopsSyrk(b)
			default:
				return tile.FlopsGemm(b)
			}
		},
	})}
}
