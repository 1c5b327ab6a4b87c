package hetero

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

func TestSlotsBasic(t *testing.T) {
	s, err := Slots([]float64{1, 1, 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 2 || s[1] != 2 || s[2] != 4 {
		t.Fatalf("Slots = %v, want [2 2 4]", s)
	}
}

func TestSlotsSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		P := 1 + rng.Intn(12)
		speeds := make([]float64, P)
		for i := range speeds {
			speeds[i] = 0.5 + 2*rng.Float64()
		}
		total := P + rng.Intn(4*P)
		s, err := Slots(speeds, total)
		if err != nil {
			return false
		}
		sum := 0
		for n, w := range s {
			if w < 1 {
				t.Logf("node %d got %d slots", n, w)
				return false
			}
			sum += w
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlotsProportionality(t *testing.T) {
	// With a large total the apportionment approaches the exact ratios.
	speeds := []float64{1, 2, 3, 4}
	s, err := Slots(speeds, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for n, w := range s {
		ideal := speeds[n] / 10 * 1000
		if math.Abs(float64(w)-ideal) > 2 {
			t.Errorf("node %d: %d slots, ideal %.0f", n, w, ideal)
		}
	}
}

func TestSlotsErrors(t *testing.T) {
	if _, err := Slots(nil, 4); err == nil {
		t.Error("empty speeds accepted")
	}
	if _, err := Slots([]float64{1, -1}, 4); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := Slots([]float64{1, 1, 1}, 2); err == nil {
		t.Error("fewer slots than nodes accepted")
	}
}

func TestNewG2DBCStructure(t *testing.T) {
	speeds := []float64{1, 1, 2, 2, 4}
	d, err := NewG2DBC(speeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes() != 5 {
		t.Fatalf("Nodes = %d", d.Nodes())
	}
	p := d.Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Load proportional to speed within the apportionment rounding.
	if imb := Imbalance(p, speeds); imb > 0.15 {
		t.Errorf("imbalance %v too high", imb)
	}
	// Communication cost no worse than homogeneous G-2DBC over the virtual
	// slot count.
	virtualCost := dist.NewG2DBC(20).Pattern().CostLU()
	if c := p.CostLU(); c > virtualCost+1e-9 {
		t.Errorf("mapped cost %v exceeds virtual cost %v", c, virtualCost)
	}
}

func TestNewG2DBCErrors(t *testing.T) {
	if _, err := NewG2DBC([]float64{1, 2}, 0); err == nil {
		t.Error("granularity 0 accepted")
	}
	if _, err := NewG2DBC([]float64{1, 0}, 2); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestHomogeneousSpeedsMatchG2DBCBalance(t *testing.T) {
	speeds := []float64{1, 1, 1, 1, 1, 1}
	d, err := NewG2DBC(speeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imb := Imbalance(d.Pattern(), speeds); imb > 1e-9 {
		t.Errorf("homogeneous imbalance %v", imb)
	}
}

// TestHeterogeneousSimulation runs the simulator with per-node speeds: on a
// half-fast/half-slow machine, the speed-aware H-G2DBC distribution must
// beat the speed-oblivious G-2DBC (which overloads the slow nodes).
func TestHeterogeneousSimulation(t *testing.T) {
	const P, mt, b = 8, 40, 200
	speeds := make([]float64, P)
	for i := range speeds {
		if i < P/2 {
			speeds[i] = 2
		} else {
			speeds[i] = 1
		}
	}
	g := dag.NewLU(mt)
	m := simulate.Machine{Workers: 4, FlopsPerWorker: 1e9, LinkBandwidth: 50e9, Latency: 1e-6}

	oblivious, err := simulate.Run(g, b, dist.NewG2DBC(P), m, simulate.Options{NodeSpeed: speeds})
	if err != nil {
		t.Fatal(err)
	}
	aware, err2 := NewG2DBC(speeds, 4)
	if err2 != nil {
		t.Fatal(err2)
	}
	awareRes, err := simulate.Run(g, b, aware, m, simulate.Options{NodeSpeed: speeds})
	if err != nil {
		t.Fatal(err)
	}
	if awareRes.Makespan >= oblivious.Makespan {
		t.Errorf("speed-aware makespan %v not below oblivious %v",
			awareRes.Makespan, oblivious.Makespan)
	}
}

func TestSimulateNodeSpeedValidation(t *testing.T) {
	g := dag.NewLU(4)
	m := simulate.PaperMachine()
	if _, err := simulate.Run(g, 8, dist.NewTwoDBC(2, 2), m,
		simulate.Options{NodeSpeed: []float64{1, 1}}); err == nil {
		t.Error("wrong NodeSpeed length accepted")
	}
	if _, err := simulate.Run(g, 8, dist.NewTwoDBC(2, 2), m,
		simulate.Options{NodeSpeed: []float64{1, 1, 0, 1}}); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestImbalancePanics(t *testing.T) {
	d, err := NewG2DBC([]float64{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Imbalance(d.Pattern(), []float64{1, 2, 3})
}
