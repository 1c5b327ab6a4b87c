package matrix

import (
	"testing"
	"testing/quick"
)

func xTrue(mt, b, nrhs int) RHS {
	x := NewRHS(mt, b, nrhs)
	x.FillFunc(func(gi, k int) float64 { return ElementAt(77, gi, k) })
	return x
}

func TestSolveLURecoversX(t *testing.T) {
	for _, mt := range []int{1, 2, 4, 7} {
		const b, nrhs = 6, 3
		a := NewDiagDominant(mt, b, 11)
		x := xTrue(mt, b, nrhs)
		rhs := a.MulRHS(x)
		if err := FactorLU(a); err != nil {
			t.Fatal(err)
		}
		SolveLU(a, rhs)
		if diff := rhs.MaxAbsDiff(x); diff > 1e-10 {
			t.Errorf("mt=%d: solution error %g", mt, diff)
		}
	}
}

func TestSolveCholeskyRecoversX(t *testing.T) {
	for _, mt := range []int{1, 2, 4, 7} {
		const b, nrhs = 6, 2
		a := NewSPD(mt, b, 12)
		x := xTrue(mt, b, nrhs)
		rhs := a.MulRHS(x)
		if err := FactorCholesky(a); err != nil {
			t.Fatal(err)
		}
		SolveCholesky(a, rhs)
		if diff := rhs.MaxAbsDiff(x); diff > 1e-10 {
			t.Errorf("mt=%d: solution error %g", mt, diff)
		}
	}
}

func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		mt, b, nrhs := 3, 4, 2
		a := NewDiagDominant(mt, b, seed)
		x := NewRHS(mt, b, nrhs)
		x.FillFunc(func(gi, k int) float64 { return ElementAt(seed+1, gi, k) })
		rhs := a.MulRHS(x)
		if err := FactorLU(a); err != nil {
			return false
		}
		SolveLU(a, rhs)
		return rhs.MaxAbsDiff(x) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRHSHelpers(t *testing.T) {
	r := NewRHS(2, 3, 2)
	r.FillFunc(func(gi, k int) float64 { return float64(10*gi + k) })
	if r[1].At(2, 1) != 51 {
		t.Fatalf("FillFunc wrong: %v", r[1].At(2, 1))
	}
	c := NewRHS(2, 3, 2)
	c.FillFunc(func(gi, k int) float64 { return float64(10*gi + k) })
	c[0].Set(0, 0, -5)
	if d := r.MaxAbsDiff(c); d != 5 {
		t.Fatalf("MaxAbsDiff = %v, want 5", d)
	}
}

func TestSolvePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRHS(0, 1, 1) },
		func() { SolveLU(NewDense(2, 3, 2), NewRHS(2, 2, 1)) },
		func() { SolveLU(NewDense(2, 2, 2), NewRHS(3, 2, 1)) },
		func() { SolveCholesky(NewSymmetricLower(2, 2), NewRHS(3, 2, 1)) },
		func() { NewDense(2, 2, 2).MulRHS(NewRHS(3, 2, 1)) },
		func() { NewSymmetricLower(2, 2).MulRHS(NewRHS(3, 2, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
