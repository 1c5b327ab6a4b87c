package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteMax computes the maximum matching size by exhaustive augmenting-path
// search (Kuhn's algorithm), used as a reference implementation.
func bruteMax(g *Graph) int {
	matchR := make([]int, g.nRight)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for _, r := range g.adj[l] {
			if seen[r] {
				continue
			}
			seen[r] = true
			if matchR[r] == -1 || try(matchR[r], seen) {
				matchR[r] = l
				return true
			}
		}
		return false
	}
	size := 0
	for l := 0; l < g.nLeft; l++ {
		if try(l, make([]bool, g.nRight)) {
			size++
		}
	}
	return size
}

func TestEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	m, size := g.MaxMatching()
	if size != 0 || len(m) != 0 {
		t.Fatalf("empty graph: size=%d, m=%v", size, m)
	}
	g = NewGraph(3, 2)
	m, size = g.MaxMatching()
	if size != 0 {
		t.Fatalf("edgeless graph: size=%d", size)
	}
	for _, r := range m {
		if r != -1 {
			t.Fatalf("edgeless graph matched a vertex: %v", m)
		}
	}
}

func TestPerfectMatching(t *testing.T) {
	g := NewGraph(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			g.AddEdge(i, j)
		}
	}
	m, size := g.MaxMatching()
	if size != 3 {
		t.Fatalf("K3,3 matching size %d, want 3", size)
	}
	seen := map[int]bool{}
	for l, r := range m {
		if r < 0 || seen[r] {
			t.Fatalf("invalid matching %v at left %d", m, l)
		}
		seen[r] = true
	}
}

func TestForcedAugmenting(t *testing.T) {
	// Classic case that requires augmentation: greedy could match l0-r0 and
	// block l1, but max matching is 2.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	_, size := g.MaxMatching()
	if size != 2 {
		t.Fatalf("matching size %d, want 2", size)
	}
}

func TestMatchingIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		nl, nr := 1+rng.Intn(12), 1+rng.Intn(12)
		g := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(l, r)
				}
			}
		}
		m, size := g.MaxMatching()
		usedR := make([]bool, nr)
		count := 0
		for l, r := range m {
			if r == -1 {
				continue
			}
			count++
			if usedR[r] {
				t.Fatalf("right vertex %d matched twice", r)
			}
			usedR[r] = true
			found := false
			for _, rr := range g.adj[l] {
				if int(rr) == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("matched pair (%d,%d) is not an edge", l, r)
			}
		}
		if count != size {
			t.Fatalf("reported size %d but %d vertices matched", size, count)
		}
	}
}

func TestAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := 1+rng.Intn(10), 1+rng.Intn(10)
		g := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Intn(100) < 25 {
					g.AddEdge(l, r)
				}
			}
		}
		_, size := g.MaxMatching()
		return size == bruteMax(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLargeBipartite(t *testing.T) {
	// n disjoint pairs: matching size must be exactly n.
	const n = 5000
	g := NewGraph(n, n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
		g.AddEdge(i, i)
	}
	_, size := g.MaxMatching()
	if size != n {
		t.Fatalf("cycle graph matching size %d, want %d", size, n)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(2, 2)
	for _, e := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", e[0], e[1])
				}
			}()
			g.AddEdge(e[0], e[1])
		}()
	}
}
