package lowerbound

import (
	"math"
	"testing"
)

func TestSequentialBounds(t *testing.T) {
	const M = 1024
	m := 1000.0
	// LU bound is 2/3 of the cubic term.
	if got, want := LUSeq(m, M), 2.0/3.0*m*m*m/32; math.Abs(got-want) > 1e-6 {
		t.Errorf("LUSeq = %v, want %v", got, want)
	}
	// Cholesky needs half the LU traffic divided by √2:
	// m³/(3√2√M) < (2/3)m³/√M.
	if CholeskySeq(m, M) >= LUSeq(m, M) {
		t.Error("Cholesky bound should be below LU bound")
	}
}

func TestParallelBounds(t *testing.T) {
	if got, want := LUPerNode(100, 4), 5000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("LUPerNode = %v, want %v", got, want)
	}
}

func TestReplicatedBounds(t *testing.T) {
	// c = 1 reduces exactly to the unreplicated bounds.
	for _, P := range []int{1, 4, 16, 35} {
		if got, want := LUPerNodeRepl(100, P, 1), LUPerNode(100, P); got != want {
			t.Errorf("LUPerNodeRepl(c=1, P=%d) = %v, want %v", P, got, want)
		}
	}
	// Quadrupling the memory halves each bound: the √c law.
	for _, P := range []int{4, 16} {
		if got, want := LUPerNodeRepl(100, P, 4), LUPerNode(100, P)/2; math.Abs(got-want) > 1e-9 {
			t.Errorf("LUPerNodeRepl(c=4, P=%d) = %v, want %v", P, got, want)
		}
	}
	// Monotone decreasing in c, and Cholesky stays √2 below LU.
	for c := 1; c <= 8; c++ {
		if LUPerNodeRepl(100, 16, c+1) >= LUPerNodeRepl(100, 16, c) {
			t.Fatalf("LU bound not decreasing at c=%d", c)
		}
		lu, chol := LUPerNodeRepl(100, 16, c), CholeskyPerNodeRepl(100, 16, c)
		if math.Abs(chol*math.Sqrt2-lu) > 1e-9 {
			t.Fatalf("c=%d: Cholesky bound %v not √2 below LU %v", c, chol, lu)
		}
	}
}

func TestPatternCostOrdering(t *testing.T) {
	// For every P: √P ≤ √(3P/2) ≤ √(2P)−0.5 (P ≥ ~8) ≤ √(2P) ≤ 2√P.
	for P := 8; P <= 1000; P++ {
		chol := PatternCostCholesky(P)
		gcrm := GCRMEmpiricalLaw(P)
		ext := SBCExtendedLaw(P)
		basic := SBCBasicLaw(P)
		lu := PatternCostLU(P)
		if !(chol <= gcrm && gcrm <= ext && ext <= basic && basic <= lu) {
			t.Fatalf("P=%d: ordering violated: %v %v %v %v %v", P, chol, gcrm, ext, basic, lu)
		}
	}
}
