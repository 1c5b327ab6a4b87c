package hetero

import (
	"math/rand"
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

// TestMappedCostNeverExceedsVirtualG2DBC holds the package comment's claim:
// mapping the V virtual slots of G-2DBC(V) onto the physical nodes can only
// merge owners within a row or a column, so T_LU of H-G2DBC over V slots is
// at most T_LU of G-2DBC(V). Speed vectors are drawn from fixed seeds: P from
// 2 to 16 nodes, speeds in [0.5, 4), granularity 1 to 6.
func TestMappedCostNeverExceedsVirtualG2DBC(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		P, gran := 2+rng.Intn(15), 1+rng.Intn(6)
		speeds := make([]float64, P)
		for n := range speeds {
			speeds[n] = 0.5 + 3.5*rng.Float64()
		}
		d, err := NewG2DBC(speeds, gran)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		V := P * gran
		if got, virt := d.Pattern().CostLU(), dist.NewG2DBC(V).Pattern().CostLU(); got > virt+1e-12 {
			t.Errorf("seed %d (P = %d, V = %d, speeds %.2f): T_LU %.6f of %s exceeds %.6f of G-2DBC(%d)",
				seed, P, V, speeds, got, d.Name(), virt, V)
		}
	}
}

// TestSpeedAwareWinsAboveTheCrossover holds what examples/heterogeneous
// prints in its default setting — 4 nodes at 3× the speed of 4 others, 4
// virtual slots per node, b = 500 on the paper's machine — over N = 10 000 to
// the example's 40 000: the simulated LU makespan under H-G2DBC beats the
// speed-oblivious G-2DBC(8) from N = 20 000 up, and at N = 10 000 the larger
// communication cost wins (0.210 s against 0.206 s), the crossover the
// example's closing lines describe.
func TestSpeedAwareWinsAboveTheCrossover(t *testing.T) {
	const fast, slow, ratio, gran, b = 4, 4, 3.0, 4, 500
	speeds := make([]float64, fast+slow)
	for n := range speeds {
		speeds[n] = 1
		if n < fast {
			speeds[n] = ratio
		}
	}
	aware, err := NewG2DBC(speeds, gran)
	if err != nil {
		t.Fatal(err)
	}
	oblivious := dist.NewG2DBC(fast + slow)
	m := simulate.PaperMachine()
	for _, n := range []int{10000, 20000, 30000, 40000} {
		g := dag.NewLU(n / b)
		var makespan [2]float64
		for k, d := range []dist.Distribution{aware, oblivious} {
			res, err := simulate.Run(g, b, d, m, simulate.Options{NodeSpeed: speeds})
			if err != nil {
				t.Fatalf("N = %d, %s: %v", n, d.Name(), err)
			}
			makespan[k] = res.Makespan
		}
		t.Logf("N = %d: %s %.3f s, %s %.3f s", n, aware.Name(), makespan[0], oblivious.Name(), makespan[1])
		if wins, want := makespan[0] < makespan[1], n >= 20000; wins != want {
			t.Errorf("N = %d: %s makespan %.3f s against %s %.3f s; the speed-aware pattern should win exactly from N = 20 000",
				n, aware.Name(), makespan[0], oblivious.Name(), makespan[1])
		}
	}
}
