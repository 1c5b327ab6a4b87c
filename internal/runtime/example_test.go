package runtime_test

import (
	"fmt"

	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
)

// ExampleFactorLU runs a real distributed LU factorization on a 10-node
// virtual cluster and verifies the result numerically.
func ExampleFactorLU() {
	const mt, b = 12, 8
	d := dist.NewG2DBC(10)
	orig := matrix.NewDiagDominant(mt, b, 1)
	fact, rep, err := runtime.FactorLU(mt, b, d, runtime.GenDiagDominant(mt, b, 1), runtime.Options{Workers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("residual small: %v\n", matrix.ResidualLU(orig, fact) < 1e-12)
	fmt.Printf("messages: %d\n", rep.Stats.TotalMessages())
	// Output:
	// residual small: true
	// messages: 338
}
