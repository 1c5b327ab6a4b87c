package tile

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 5)
	if a.At(1, 2) != 5 || a.At(0, 0) != 0 {
		t.Fatal("Set/At broken")
	}
	if len(a.Row(1)) != 3 || a.Row(1)[2] != 5 {
		t.Fatal("Row broken")
	}
	if a.Bytes() != 48 {
		t.Fatalf("Bytes = %d, want 48", a.Bytes())
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,1) did not panic")
		}
	}()
	New(0, 1)
}

func TestCloneCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(3, 3)
	a.Random(rng)
	b := a.Clone()
	if !a.EqualApprox(b, 0) {
		t.Fatal("clone differs")
	}
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("clone shares storage")
	}
	c := New(3, 3)
	c.CopyFrom(a)
	if !c.EqualApprox(a, 0) {
		t.Fatal("CopyFrom differs")
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom shape mismatch did not panic")
		}
	}()
	New(2, 2).CopyFrom(a)
}

func TestZero(t *testing.T) {
	a := New(2, 3)
	for i := range a.Data {
		a.Data[i] = 7
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero broken")
		}
	}
}

func TestNorms(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 4)
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
	// Scaled accumulation must survive huge entries.
	b := New(1, 2)
	b.Set(0, 0, 1e200)
	b.Set(0, 1, 1e200)
	if got := b.FrobeniusNorm(); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e190 {
		t.Errorf("FrobeniusNorm overflow handling broken: %v", got)
	}
}

func TestEqualApproxShapes(t *testing.T) {
	if New(2, 2).EqualApprox(New(2, 3), 1) {
		t.Error("different shapes reported equal")
	}
}
