package runtime

import (
	"fmt"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// gemmDist extends a distribution to the three tile regions of the GEMM
// graph: C at (i, j), A at (i, nt+k), B at (mt+k, j). All three operands use
// the same pattern applied to their own tile coordinates — the standard
// ScaLAPACK-style co-distribution.
type gemmDist struct {
	dist.Distribution
	mt, nt int
}

func (g gemmDist) Owner(i, j int) int {
	switch {
	case i >= g.mt: // B tile (i-mt, j)
		return g.Distribution.Owner(i-g.mt, j)
	case j >= g.nt: // A tile (i, j-nt)
		return g.Distribution.Owner(i, j-g.nt)
	default:
		return g.Distribution.Owner(i, j)
	}
}

// Name identifies the wrapped distribution in logs.
func (g gemmDist) Name() string { return fmt.Sprintf("%s+AB", g.Distribution.Name()) }

// GEMMKernel applies one task of the matrix-product graph.
func GEMMKernel(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
	switch t.Kind {
	case dag.GemmA, dag.GemmB:
		// Publication only.
	case dag.GemmUpd:
		tile.Gemm(tile.NoTrans, tile.NoTrans, 1, inputs[0], inputs[1], 1, out)
	default:
		return fmt.Errorf("runtime: %v is not a GEMM task", t)
	}
	return nil
}

// GEMM distributedly computes C = C + A·B on a fresh virtual cluster, with
// C (mt×nt tiles), A (mt×kt) and B (kt×nt) defined by their generators and
// all three operands distributed by d. It returns the updated C and the
// execution report.
func GEMM(mt, nt, kt, b int, d dist.Distribution,
	genC, genA, genB func(i, j int) *tile.Tile, opt Options) (*matrix.Dense, *Report, error) {

	gen := func(i, j int) *tile.Tile {
		switch {
		case i >= mt:
			return genB(i-mt, j)
		case j >= nt:
			return genA(i, j-nt)
		default:
			return genC(i, j)
		}
	}
	return runDense(dag.NewGEMMOp(mt, nt, kt), gemmDist{Distribution: d, mt: mt, nt: nt}, mt, nt, b, gen, GEMMKernel, opt)
}
