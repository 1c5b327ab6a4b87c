package dist

import (
	"sync"
	"testing"

	"anybc/internal/pattern"
)

func sbc3Pattern() *pattern.Pattern {
	// SBC pair pattern for r=3, P=3 with undefined diagonal.
	p := pattern.New(3, 3)
	p.Set(0, 1, 0)
	p.Set(1, 0, 0)
	p.Set(0, 2, 1)
	p.Set(2, 0, 1)
	p.Set(1, 2, 2)
	p.Set(2, 1, 2)
	return p
}

func TestDiagResolverAssignsOnColrow(t *testing.T) {
	res := NewDiagResolver("test", sbc3Pattern())
	for i := 0; i < 12; i++ {
		for j := 0; j <= i; j++ {
			o := res.Owner(i, j)
			if o < 0 || o >= 3 {
				t.Fatalf("Owner(%d,%d) = %d", i, j, o)
			}
			if i%3 == j%3 {
				// Diagonal cell: owner must be on colrow i mod 3.
				cr := i % 3
				p := res.Pattern()
				found := false
				for k := 0; k < 3; k++ {
					if p.At(cr, k) == o || p.At(k, cr) == o {
						found = true
					}
				}
				if !found {
					t.Fatalf("diag tile (%d,%d) assigned to %d, not on colrow %d", i, j, o, cr)
				}
			}
		}
	}
}

func TestDiagResolverDeterministicOrder(t *testing.T) {
	// Two resolvers queried in different orders must agree everywhere.
	a := NewDiagResolver("a", sbc3Pattern())
	b := NewDiagResolver("b", sbc3Pattern())
	const n = 15
	// Query a in row-major order, b in reverse order.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			a.Owner(i, j)
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i; j >= 0; j-- {
			b.Owner(i, j)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if a.Owner(i, j) != b.Owner(i, j) {
				t.Fatalf("order-dependent assignment at (%d,%d)", i, j)
			}
		}
	}
}

func TestDiagResolverBalance(t *testing.T) {
	// Over a large extent the dynamic diagonal assignment must keep loads
	// close to even: lower triangle of 30x30 tiles on 3 nodes ≈ 155 each.
	res := NewDiagResolver("test", sbc3Pattern())
	loads := make([]int64, res.Nodes())
	for i := 0; i < 30; i++ {
		for j := 0; j <= i; j++ {
			loads[res.Owner(i, j)]++
		}
	}
	total := int64(0)
	for _, l := range loads {
		total += l
	}
	if total != 30*31/2 {
		t.Fatalf("total load %d, want %d", total, 30*31/2)
	}
	avg := float64(total) / 3
	for n, l := range loads {
		if f := float64(l); f < 0.9*avg || f > 1.1*avg {
			t.Errorf("node %d load %d too far from average %.1f", n, l, avg)
		}
	}
}

func TestDiagResolverMirrors(t *testing.T) {
	res := NewDiagResolver("test", sbc3Pattern())
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if res.Owner(i, j) != res.Owner(j, i) {
				t.Fatalf("Owner not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDiagResolverConcurrent(t *testing.T) {
	res := NewDiagResolver("test", sbc3Pattern())
	want := map[[2]int]int{}
	for i := 0; i < 20; i++ {
		for j := 0; j <= i; j++ {
			want[[2]int{i, j}] = res.Owner(i, j)
		}
	}
	fresh := NewDiagResolver("fresh", sbc3Pattern())
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 20; i += 1 {
				for j := 0; j <= i; j++ {
					if fresh.Owner(i, j) != want[[2]int{i, j}] {
						select {
						case errs <- "concurrent resolution diverged":
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestDiagResolverFullyDefinedPattern(t *testing.T) {
	p := pattern.New(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			p.Set(i, j, (i+j)%2)
		}
	}
	res := NewDiagResolver("full", p)
	if res.Owner(0, 0) != 0 || res.Owner(3, 3) != 0 || res.Owner(1, 0) != 1 {
		t.Error("fully defined pattern resolved incorrectly")
	}
}

func TestDiagResolverPanics(t *testing.T) {
	rect := NewTwoDBC(2, 3).Pattern()
	defer func() {
		if recover() == nil {
			t.Error("non-square pattern did not panic")
		}
	}()
	NewDiagResolver("rect", rect)
}
