package dist

import "testing"

// opaque is a Distribution that exposes no pattern — the case the comma-ok
// accessors exist for.
type opaque struct{}

func (opaque) Name() string       { return "opaque" }
func (opaque) Nodes() int         { return 3 }
func (opaque) Owner(i, j int) int { return (i + j) % 3 }

// TestPatternAccessorsCommaOk: library code gets a comma-ok miss for
// pattern-less distributions, and a hit with the correct costs for
// pattern-backed ones.
func TestPatternAccessorsCommaOk(t *testing.T) {
	var d Distribution = opaque{}
	if _, ok := PatternOf(d); ok {
		t.Fatal("PatternOf(opaque) reported a pattern")
	}
	if _, ok := TryCostLU(d); ok {
		t.Fatal("TryCostLU(opaque) reported ok")
	}
	if _, ok := TryCostCholesky(d); ok {
		t.Fatal("TryCostCholesky(opaque) reported ok")
	}

	g := NewG2DBC(5)
	p, ok := PatternOf(g)
	if !ok || p == nil {
		t.Fatal("PatternOf(G-2DBC) missed")
	}
	if T, ok := TryCostLU(g); !ok || T != p.CostLU() {
		t.Fatalf("TryCostLU(G-2DBC) = %v, %v; want %v, true", T, ok, p.CostLU())
	}
	if T, ok := TryCostCholesky(g); !ok || T != p.CostCholesky() {
		t.Fatalf("TryCostCholesky(G-2DBC) = %v, %v; want %v, true", T, ok, p.CostCholesky())
	}
}
