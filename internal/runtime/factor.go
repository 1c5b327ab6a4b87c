package runtime

import (
	"cmp"
	"errors"
	"fmt"
	goruntime "runtime"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/plan"
	"anybc/internal/tile"
)

// LUKernel applies one LU task with the real numeric kernels.
func LUKernel(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
	switch t.Kind {
	case dag.GETRF:
		return tile.Getrf(out)
	case dag.TRSMCol:
		tile.Trsm(tile.Right, tile.Upper, tile.NoTrans, tile.NonUnit, 1, inputs[0], out)
	case dag.TRSMRow:
		tile.Trsm(tile.Left, tile.Lower, tile.NoTrans, tile.Unit, 1, inputs[0], out)
	case dag.GEMMLU:
		tile.Gemm(tile.NoTrans, tile.NoTrans, -1, inputs[0], inputs[1], 1, out)
	default:
		return errors.New("runtime: not an LU task") // the engine names the task
	}
	return nil
}

// CholeskyKernel applies one Cholesky task with the real numeric kernels.
func CholeskyKernel(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
	switch t.Kind {
	case dag.POTRF:
		return tile.Potrf(out)
	case dag.TRSMChol:
		tile.Trsm(tile.Right, tile.Lower, tile.TransT, tile.NonUnit, 1, inputs[0], out)
	case dag.SYRK:
		tile.Syrk(tile.Lower, tile.NoTrans, -1, inputs[0], 1, out)
	case dag.GEMMChol:
		tile.Gemm(tile.NoTrans, tile.TransT, -1, inputs[0], inputs[1], 1, out)
	default:
		return errors.New("runtime: not a Cholesky task")
	}
	return nil
}

// GenDiagDominant returns a tile generator for the diagonally dominant LU
// test matrix of matrix.NewDiagDominant, value for value with
// matrix.DiagDominantAt. Its tiles are carved from a slab sized to the run's
// mt² tiles, so the P nodes may call it side by side.
func GenDiagDominant(mt, b int, seed int64) func(i, j int) *tile.Tile {
	m, s := mt*b, newSlab(b, mt*mt)
	return func(i, j int) *tile.Tile {
		t := s.tile()
		matrix.DiagDominantTile(t, seed, m, i, j)
		return t
	}
}

// GenSPD returns a tile generator for the SPD Cholesky test matrix of
// matrix.NewSPD, value for value with matrix.SPDAt: diagonal tiles are full,
// tiles above the diagonal mirror the ones below. Its slab is sized to the
// mt(mt+1)/2 tiles of a Cholesky run.
func GenSPD(mt, b int, seed int64) func(i, j int) *tile.Tile {
	m, s := mt*b, newSlab(b, mt*(mt+1)/2)
	return func(i, j int) *tile.Tile {
		t := s.tile()
		matrix.SPDTile(t, seed, m, i, j)
		return t
	}
}

// FactorLU runs the distributed tiled unpivoted LU factorization of the
// matrix defined by gen on a fresh virtual cluster with distribution d.
// It returns the factored matrix (gathered from all nodes) and the execution
// report.
func FactorLU(mt, b int, d dist.Distribution, gen func(i, j int) *tile.Tile, opt Options) (*matrix.Dense, *Report, error) {
	if err := cmp.Or(atLeastOne("mt", mt), atLeastOne("b", b)); err != nil {
		return nil, nil, err
	}
	pl, err := plans.get(shape{graph: graphLU, mt: mt}, d)
	if err != nil {
		return nil, nil, err
	}
	return runPlanDense(pl, mt, b, gen, LUKernel, opt)
}

// atLeastOne returns the error of a Factor size below 1, which no
// graph constructor or tile generator takes, and nil otherwise.
func atLeastOne(name string, v int) error {
	if v >= 1 {
		return nil
	}
	return fmt.Errorf("runtime: %s = %d, want at least 1", name, v)
}

// collectFirstBytes is the matrix size from which gather collects garbage
// before a run generates its matrix. Left to Go's default pacing, a call
// allocates its matrix beside the previous call's dead one until the heap
// reaches the pacer's goal, twice the live heap, so repeated calls peak at
// two matrices; one forced collection first lets the new matrix reuse the
// old one's memory. It took 0.15–0.6 ms on 20–80 MB heaps, 0.8 % of an
// 18.9 MB LU call (18.3 ms on a 2-vCPU Xeon) and less above that. Below this
// size that fixed cost is a visible share of a call (a tenth of a 5.5 ms
// one) for a few MB saved, so smaller calls keep the default pacing.
const collectFirstBytes = 16 << 20

// gather executes pl on b×b tiles and returns its final tiles, each at the
// index slot gives it. This is the one place a run's result is assembled,
// and it copies nothing: RunPlan's collect hands every final tile over by
// ownership, so the result is made of the very buffers the engines updated
// in place. A result of n tiles of at least collectFirstBytes is preceded by
// one forced collection.
func gather(pl *plan.Plan, b int, gen func(i, j int) *tile.Tile, kern Kernel, opt Options,
	n int, slot func(i, j int) int) ([]*tile.Tile, *Report, error) {

	if int64(n)*int64(b)*int64(b)*8 >= collectFirstBytes {
		goruntime.GC()
	}
	tiles := make([]*tile.Tile, n)
	rep, err := RunPlan(pl, gen, kern, opt, func(i, j int, t *tile.Tile) {
		tiles[slot(i, j)] = t
	})
	if err != nil {
		return nil, nil, err
	}
	return tiles, rep, nil
}

// runPlanDense executes an LU plan of mt×mt tiles and returns its result as
// a dense matrix made of the run's own final tiles.
func runPlanDense(pl *plan.Plan, mt, b int,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options) (*matrix.Dense, *Report, error) {

	tiles, rep, err := gather(pl, b, gen, kern, opt, mt*mt, func(i, j int) int { return i*mt + j })
	if err != nil {
		return nil, nil, err
	}
	return matrix.DenseFromTiles(mt, mt, b, tiles), rep, nil
}

// runPlanLower is runPlanDense for a lower-stored symmetric mt×mt result.
func runPlanLower(pl *plan.Plan, mt, b int,
	gen func(i, j int) *tile.Tile, kern Kernel, opt Options) (*matrix.SymmetricLower, *Report, error) {

	tiles, rep, err := gather(pl, b, gen, kern, opt, mt*(mt+1)/2, func(i, j int) int { return i*(i+1)/2 + j })
	if err != nil {
		return nil, nil, err
	}
	return matrix.SymmetricLowerFromTiles(mt, b, tiles), rep, nil
}

// FactorCholesky runs the distributed tiled Cholesky factorization of the
// lower-stored SPD matrix defined by gen.
func FactorCholesky(mt, b int, d dist.Distribution, gen func(i, j int) *tile.Tile, opt Options) (*matrix.SymmetricLower, *Report, error) {
	if err := cmp.Or(atLeastOne("mt", mt), atLeastOne("b", b)); err != nil {
		return nil, nil, err
	}
	pl, err := plans.get(shape{graph: graphCholesky, mt: mt}, d)
	if err != nil {
		return nil, nil, err
	}
	return runPlanLower(pl, mt, b, gen, CholeskyKernel, opt)
}
