package simulate_test

import (
	"fmt"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

// ExampleRun simulates the paper's headline case: LU on 23 nodes, comparing
// the degenerate 23x1 2DBC grid with G-2DBC, on the calibrated machine
// model.
func ExampleRun() {
	g := dag.NewLU(50) // 25,000 x 25,000 elements at tile 500
	m := simulate.PaperMachine()
	bad, _ := simulate.Run(g, 500, dist.NewTwoDBC(23, 1), m, simulate.Options{})
	good, _ := simulate.Run(g, 500, dist.NewG2DBC(23), m, simulate.Options{})
	fmt.Printf("2DBC(23x1): %d messages; G-2DBC: %d messages\n", bad.Messages, good.Messages)
	fmt.Printf("G-2DBC faster: %v (speedup %.1fx)\n",
		good.Makespan < bad.Makespan, bad.Makespan/good.Makespan)
	// Output:
	// 2DBC(23x1): 26026 messages; G-2DBC: 9719 messages
	// G-2DBC faster: true (speedup 2.9x)
}
