package runtime

import (
	"fmt"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// syrkDist extends a distribution to the virtual A-tile columns of the SYRK
// graph: A[i][k] (tile column mt+k) is distributed with the same pattern as
// the matrix itself, applied to A's own tile coordinates.
type syrkDist struct {
	dist.Distribution
	mt int
}

func (s syrkDist) Owner(i, j int) int {
	if j >= s.mt {
		return s.Distribution.Owner(i, j-s.mt)
	}
	return s.Distribution.Owner(i, j)
}

// Name identifies the wrapped distribution in logs.
func (s syrkDist) Name() string { return fmt.Sprintf("%s+A", s.Distribution.Name()) }

// SYRKKernel applies one task of the symmetric rank-k update graph.
func SYRKKernel(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
	switch t.Kind {
	case dag.AInit:
		// Publication only; the tile already holds A[i][k].
	case dag.SYRKUpd:
		tile.Syrk(tile.Lower, tile.NoTrans, 1, inputs[0], 1, out)
	case dag.GEMMUpd:
		tile.Gemm(tile.NoTrans, tile.TransT, 1, inputs[0], inputs[1], 1, out)
	default:
		return fmt.Errorf("runtime: %v is not a SYRK task", t)
	}
	return nil
}

// SYRK distributedly computes C = C + A·Aᵀ on a fresh virtual cluster:
// C is the mt×mt symmetric matrix (lower storage) defined by genC, and A is
// the mt×kt tile matrix defined by genA. It returns the updated C and the
// execution report.
func SYRK(mt, kt, b int, d dist.Distribution, genC func(i, j int) *tile.Tile,
	genA func(i, k int) *tile.Tile, opt Options) (*matrix.SymmetricLower, *Report, error) {

	gen := func(i, j int) *tile.Tile {
		if j >= mt {
			return genA(i, j-mt)
		}
		return genC(i, j)
	}
	return runLower(dag.NewSYRKOp(mt, kt), syrkDist{Distribution: d, mt: mt}, mt, b, gen, SYRKKernel, opt)
}
