package runtime

import (
	"cmp"
	"fmt"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// solveDist extends a matrix distribution to the virtual RHS tile columns of
// the factor-and-solve graphs: RHS tile i (columns mt and mt+1) is owned by
// the owner of diagonal tile (i, i), so the triangular solves reuse the
// factorization's data placement.
type solveDist struct {
	dist.Distribution
	mt int
}

func (s solveDist) Owner(i, j int) int {
	if j >= s.mt {
		return s.Distribution.Owner(i, i)
	}
	return s.Distribution.Owner(i, j)
}

// LUSolveKernel applies one task of the LU factor-and-solve graph.
func LUSolveKernel(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
	switch t.Kind {
	case dag.FTRSM:
		tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.Unit, 1, inputs[0], out)
	case dag.FGEMM, dag.BGEMM:
		tile.Gemm(tile.NoTrans, tile.NoTrans, -1, inputs[0], inputs[1], 1, out)
	case dag.BCOPY:
		out.CopyFrom(inputs[0])
	case dag.BTRSM:
		tile.Trsm(tile.Left, tile.Upper, tile.NoTrans, tile.NonUnit, 1, inputs[0], out)
	default:
		return LUKernel(t, out, inputs)
	}
	return nil
}

// CholeskySolveKernel applies one task of the Cholesky factor-and-solve
// graph.
func CholeskySolveKernel(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
	switch t.Kind {
	case dag.FTRSM:
		tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.NonUnit, 1, inputs[0], out)
	case dag.FGEMM:
		tile.Gemm(tile.NoTrans, tile.NoTrans, -1, inputs[0], inputs[1], 1, out)
	case dag.BCOPY:
		out.CopyFrom(inputs[0])
	case dag.BGEMM:
		// inputs[0] is the transposed panel tile (j, i).
		tile.Gemm(tile.TransT, tile.NoTrans, -1, inputs[0], inputs[1], 1, out)
	case dag.BTRSM:
		tile.Trsm(tile.Left, tile.Lower, tile.TransT, tile.NonUnit, 1, inputs[0], out)
	default:
		return CholeskyKernel(t, out, inputs)
	}
	return nil
}

// solveGen wraps a matrix tile generator with RHS tile generation: column mt
// holds B (which the forward phase overwrites with Y) and column mt+1 the
// backward workspace that becomes X.
func solveGen(mt, b, nrhs int, genA func(i, j int) *tile.Tile, genB func(i int) *tile.Tile) func(i, j int) *tile.Tile {
	return func(i, j int) *tile.Tile {
		switch {
		case j < mt:
			return genA(i, j)
		case j == mt:
			return genB(i)
		default:
			return tile.New(b, nrhs) // X workspace, seeded by BCOPY
		}
	}
}

// SolveLU distributedly factorizes the matrix defined by genA and solves
// A·X = B for the right-hand side defined by genB, all under one
// owner-computes schedule on a fresh virtual cluster. It returns X and the
// execution report.
func SolveLU(mt, b, nrhs int, d dist.Distribution, genA func(i, j int) *tile.Tile,
	genB func(i int) *tile.Tile, opt Options) (matrix.RHS, *Report, error) {

	return runSolve(shape{graph: graphLUSolve, mt: mt, nrhs: nrhs}, b, d, genA, genB, LUSolveKernel, opt)
}

// SolveCholesky distributedly factorizes the SPD matrix defined by genA and
// solves A·X = B.
func SolveCholesky(mt, b, nrhs int, d dist.Distribution, genA func(i, j int) *tile.Tile,
	genB func(i int) *tile.Tile, opt Options) (matrix.RHS, *Report, error) {

	return runSolve(shape{graph: graphCholeskySolve, mt: mt, nrhs: nrhs}, b, d, genA, genB, CholeskySolveKernel, opt)
}

// runSolve runs the factor-and-solve graph k names, whose mt and nrhs are the
// call's, from the plan cache.
func runSolve(k shape, b int, d dist.Distribution,
	genA func(i, j int) *tile.Tile, genB func(i int) *tile.Tile,
	kern Kernel, opt Options) (matrix.RHS, *Report, error) {

	mt, nrhs := k.mt, k.nrhs
	if err := cmp.Or(atLeastOne("mt", mt), atLeastOne("b", b), atLeastOne("nrhs", nrhs)); err != nil {
		return nil, nil, err
	}
	pl, err := plans.get(k, solveDist{Distribution: d, mt: mt})
	if err != nil {
		return nil, nil, err
	}
	// X is the run's own workspace column, handed over like any result.
	x, rep, err := gather(pl, solveGen(mt, b, nrhs, genA, genB), kern, opt, mt, func(i, j int) int {
		if j == mt+1 {
			return i
		}
		return -1
	})
	if err != nil {
		return nil, nil, err
	}
	return matrix.RHS(x), rep, nil
}

var _ dist.Distribution = solveDist{}

// String keeps solveDist transparent in logs.
func (s solveDist) Name() string {
	return fmt.Sprintf("%s+rhs", s.Distribution.Name())
}
