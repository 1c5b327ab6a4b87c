package dist_test

import (
	"fmt"

	"anybc/internal/dist"
)

// ExampleNewG2DBC reproduces the paper's Figure 3: the G-2DBC pattern for
// P = 10 nodes (a = 4, b = 3, c = 2), built from the incomplete pattern IP
// whose last-row holes are filled row by row.
func ExampleNewG2DBC() {
	d := dist.NewG2DBC(10)
	a, b, c := dist.G2DBCParams(10)
	fmt.Printf("a=%d b=%d c=%d size=%s cost=%.3f\n", a, b, c, d.Pattern().Dims(), d.Pattern().CostLU())
	fmt.Print(d.Pattern())
	// Output:
	// a=4 b=3 c=2 size=6x10 cost=6.600
	// 0 1 2 3 0 1 2 3 0 1
	// 4 5 6 7 4 5 6 7 4 5
	// 8 9 2 3 8 9 2 3 8 9
	// 0 1 2 3 0 1 2 3 0 1
	// 4 5 6 7 4 5 6 7 4 5
	// 8 9 6 7 8 9 6 7 8 9
}

// ExampleBest2DBC shows the classical fallback problem for a prime node
// count: the only exact grid is degenerate.
func ExampleBest2DBC() {
	for _, p := range []int{20, 23} {
		pat := dist.Best2DBC(p).Pattern()
		fmt.Printf("P=%d: grid %dx%d, cost %.0f\n", p, pat.Rows(), pat.Cols(), pat.CostLU())
	}
	// Output:
	// P=20: grid 5x4, cost 9
	// P=23: grid 23x1, cost 24
}

// ExampleNewSBCPair shows the Symmetric Block Cyclic pattern for P = 10
// (r = 5): each node owns the two symmetric cells of one colrow pair, and
// diagonal cells (".") are assigned at replication time.
func ExampleNewSBCPair() {
	d := dist.NewSBCPair(5)
	fmt.Printf("%s cost=%.0f\n", d.Name(), d.Pattern().CostCholesky())
	fmt.Print(d.Pattern())
	// Output:
	// SBC(5x5,P=10) cost=4
	// . 0 1 2 3
	// 0 . 4 5 6
	// 1 4 . 7 8
	// 2 5 7 . 9
	// 3 6 8 9 .
}

// ExampleNewSTS shows the Steiner-triple-system pattern for r = 9 (P = 12):
// every node owns the six cells of one triple, every colrow holds exactly
// (r-1)/2 = 4 distinct nodes.
func ExampleNewSTS() {
	d := dist.NewSTS(9)
	fmt.Printf("%s cost=%.0f colrow0=%d\n",
		d.Name(), d.Pattern().CostCholesky(), d.Pattern().ColrowDistincts()[0])
	// Output:
	// STS(9x9,P=12) cost=4 colrow0=4
}
