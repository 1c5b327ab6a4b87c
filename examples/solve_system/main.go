// End-to-end linear system solve: factorize A and solve A·X = B in one
// distributed owner-computes schedule on the virtual cluster — the
// factorization DAG and both triangular substitutions execute as a single
// task graph, with the right-hand-side tiles placed on the diagonal owners.
//
// The example builds a system with a known solution, solves it under the
// paper's G-2DBC distribution (LU) and under GCR&M (Cholesky on an SPD
// system), and reports solution accuracy and communication.
//
//	go run ./examples/solve_system -p 10 -mt 16 -b 12 -nrhs 4
package main

import (
	"flag"
	"fmt"
	"os"

	"anybc/internal/core"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
	"anybc/internal/tile"
)

func main() {
	var (
		p    = flag.Int("p", 10, "number of virtual nodes")
		mt   = flag.Int("mt", 16, "matrix size in tiles")
		b    = flag.Int("b", 12, "tile size")
		nrhs = flag.Int("nrhs", 4, "right-hand-side columns")
		seed = flag.Int64("seed", 3, "generator seed")
	)
	flag.Parse()

	fmt.Printf("Solving A·X = B: %d unknowns, %d right-hand sides, P=%d nodes\n\n",
		*mt**b, *nrhs, *p)

	// --- LU path (non-symmetric A, G-2DBC distribution) ---
	a := matrix.NewDiagDominant(*mt, *b, *seed)
	xTrue := matrix.NewRHS(*mt, *b, *nrhs)
	xTrue.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(*seed+1, gi, k) })
	rhs := a.MulRHS(xTrue)

	d := dist.NewG2DBC(*p)
	x, rep, err := runtime.SolveLU(*mt, *b, *nrhs, d,
		runtime.GenDiagDominant(*mt, *b, *seed),
		func(i int) *tile.Tile { return rhs[i].Clone() },
		runtime.Options{Workers: 2})
	if err != nil {
		fail(err)
	}
	fmt.Printf("LU + solve under %s:\n", d.Name())
	fmt.Printf("  max |x - x_true| = %.2e\n", x.MaxAbsDiff(xTrue))
	fmt.Printf("  tile messages %d (%.2f MB), wall time %v\n\n",
		rep.Stats.TotalMessages(), float64(rep.Stats.TotalBytes())/1e6, rep.Elapsed)

	// --- Cholesky path (SPD A, GCR&M distribution) ---
	spd := matrix.NewSPD(*mt, *b, *seed+10)
	xTrue2 := matrix.NewRHS(*mt, *b, *nrhs)
	xTrue2.FillFunc(func(gi, k int) float64 { return matrix.ElementAt(*seed+11, gi, k) })
	rhs2 := spd.MulRHS(xTrue2)

	ds, err := core.New(core.GCRM, *p, core.Options{})
	if err != nil {
		fail(err)
	}
	x2, rep2, err := runtime.SolveCholesky(*mt, *b, *nrhs, ds,
		runtime.GenSPD(*mt, *b, *seed+10),
		func(i int) *tile.Tile { return rhs2[i].Clone() },
		runtime.Options{Workers: 2})
	if err != nil {
		fail(err)
	}
	fmt.Printf("Cholesky + solve under %s:\n", ds.Name())
	fmt.Printf("  max |x - x_true| = %.2e\n", x2.MaxAbsDiff(xTrue2))
	fmt.Printf("  tile messages %d (%.2f MB), wall time %v\n",
		rep2.Stats.TotalMessages(), float64(rep2.Stats.TotalBytes())/1e6, rep2.Elapsed)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "solve_system:", err)
	os.Exit(1)
}
