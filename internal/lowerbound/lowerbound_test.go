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
	// (2/3)·100²/√4 − 100²/4: the theorem's share less the words held.
	if got, want := LUPerNode(100, 4), 10000.0/3-2500; math.Abs(got-want) > 1e-9 {
		t.Errorf("LUPerNode = %v, want %v", got, want)
	}
	// At P = 2 a node holds more than the theorem asks it to load.
	if got := LUPerNode(100, 2); got != 0 {
		t.Errorf("LUPerNode(P=2) = %v, want 0", got)
	}
	// (100³/(3√2·√(100²/9)))/9 − 100·101/18.
	if got, want := CholeskyPerNodeRepl(100, 9, 1), 10000/(9*math.Sqrt2)-10100.0/18; math.Abs(got-want) > 1e-9 {
		t.Errorf("CholeskyPerNodeRepl = %v, want %v", got, want)
	}
}

func TestReplicatedBounds(t *testing.T) {
	// c = 1 reduces exactly to the unreplicated bounds.
	for _, P := range []int{1, 4, 16, 35} {
		if got, want := LUPerNodeRepl(100, P, 1), LUPerNode(100, P); got != want {
			t.Errorf("LUPerNodeRepl(c=1, P=%d) = %v, want %v", P, got, want)
		}
	}
	// Quadrupling the memory halves the theorem's share; the held share
	// stays.
	for _, P := range []int{16, 64} {
		p := float64(P)
		if got, want := LUPerNodeRepl(100, P, 4), (LUPerNode(100, P)+1e4/p)/2-1e4/p; math.Abs(got-want) > 1e-9 {
			t.Errorf("LUPerNodeRepl(c=4, P=%d) = %v, want %v", P, got, want)
		}
	}
	// Non-increasing in c, never negative, and Cholesky never above LU.
	for c := 1; c <= 8; c++ {
		lu, chol := LUPerNodeRepl(100, 16, c), CholeskyPerNodeRepl(100, 16, c)
		if LUPerNodeRepl(100, 16, c+1) > lu {
			t.Fatalf("LU bound grows at c=%d", c)
		}
		if chol < 0 || chol > lu {
			t.Fatalf("c=%d: Cholesky bound %v outside [0, LU %v]", c, chol, lu)
		}
	}
}
