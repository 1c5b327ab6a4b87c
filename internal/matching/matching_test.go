package matching

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// csr flattens per-left-vertex lists of base vertices into Match's offsets
// and adjacency.
func csr(lists [][]int32) (off, adj []int32) {
	off = make([]int32, 1, len(lists)+1)
	for _, l := range lists {
		adj = append(adj, l...)
		off = append(off, int32(len(adj)))
	}
	return off, adj
}

// materialize lists, for each left vertex, every right vertex the copies
// stand for: base vertex b becomes b·copies … b·copies+copies−1.
func materialize(lists [][]int32, copies int) [][]int32 {
	out := make([][]int32, len(lists))
	for l, bs := range lists {
		for _, b := range bs {
			for c := 0; c < copies; c++ {
				out[l] = append(out[l], b*int32(copies)+int32(c))
			}
		}
	}
	return out
}

// randomLists draws a bipartite graph of up to maxSide vertices a side, each
// edge present with probability pct %.
func randomLists(rng *rand.Rand, maxSide, pct int) (lists [][]int32, nBase int) {
	nl, nb := 1+rng.Intn(maxSide), 1+rng.Intn(maxSide)
	lists = make([][]int32, nl)
	for l := range lists {
		for b := 0; b < nb; b++ {
			if rng.Intn(100) < pct {
				lists[l] = append(lists[l], int32(b))
			}
		}
	}
	return lists, nb
}

// bruteMax computes the maximum matching size of an explicit graph (right
// vertices 0 … nRight−1) by exhaustive augmenting-path search (Kuhn's
// algorithm), used as a reference implementation.
func bruteMax(lists [][]int32, nRight int) int {
	matchR := make([]int, nRight)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for _, r := range lists[l] {
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
	for l := range lists {
		if try(l, make([]bool, nRight)) {
			size++
		}
	}
	return size
}

// checkMatching fails t unless m is a matching of the explicit graph lists
// over nRight right vertices — every pair an edge, every right vertex used
// at most once — and returns its size.
func checkMatching(t *testing.T, lists [][]int32, nRight int, m []int32) int {
	t.Helper()
	usedR := make([]bool, nRight)
	count := 0
	for l, r := range m {
		if r == -1 {
			continue
		}
		count++
		if r < 0 || int(r) >= nRight || usedR[r] {
			t.Fatalf("right vertex %d matched twice or out of range", r)
		}
		usedR[r] = true
		found := false
		for _, rr := range lists[l] {
			if rr == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("matched pair (%d,%d) is not an edge", l, r)
		}
	}
	return count
}

func TestEmptyGraph(t *testing.T) {
	if m := Match([]int32{0}, nil, nil, 0, 1); len(m) != 0 {
		t.Fatalf("empty graph: m=%v", m)
	}
	m := Match([]int32{0, 0, 0, 0}, nil, nil, 2, 1)
	if len(m) != 3 {
		t.Fatalf("edgeless graph: %d left vertices, want 3", len(m))
	}
	for _, r := range m {
		if r != -1 {
			t.Fatalf("edgeless graph matched a vertex: %v", m)
		}
	}
}

func TestPerfectMatching(t *testing.T) {
	all := []int32{0, 1, 2}
	off, adj := csr([][]int32{all, all, all})
	m := Match(off, adj, nil, 3, 1)
	seen := map[int32]bool{}
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
	lists := [][]int32{{0, 1}, {0}}
	off, adj := csr(lists)
	if size := checkMatching(t, lists, 2, Match(off, adj, nil, 2, 1)); size != 2 {
		t.Fatalf("matching size %d, want 2", size)
	}
	// With two copies of base vertex 0 and no vertex 1, both left vertices
	// still match: one copy each.
	off, adj = csr([][]int32{{0}, {0}})
	if m := Match(off, adj, nil, 1, 2); m[0] < 0 || m[1] < 0 || m[0] == m[1] {
		t.Fatalf("two copies: m=%v, want one copy each", m)
	}
}

func TestMatchingIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		lists, nb := randomLists(rng, 12, 33)
		off, adj := csr(lists)
		checkMatching(t, lists, nb, Match(off, adj, nil, nb, 1))
	}
}

func TestAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		lists, nb := randomLists(rand.New(rand.NewSource(seed)), 10, 25)
		off, adj := csr(lists)
		return checkMatching(t, lists, nb, Match(off, adj, nil, nb, 1)) == bruteMax(lists, nb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCopiesMatchTheMaterializedGraph: with copies = 1 … 4 a base vertex
// stands for that many right vertices. The result must be a matching of
// the graph that lists every copy — each pair an edge, each copy used once
// — as large as that graph's maximum, and a listed subset of the left
// vertices must match as the graph of that subset alone would.
func TestCopiesMatchTheMaterializedGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lists, nb := randomLists(rng, 10, 25)
		copies := 1 + rng.Intn(4)
		off, adj := csr(lists)
		full := materialize(lists, copies)
		if checkMatching(t, full, nb*copies, Match(off, adj, nil, nb, copies)) != bruteMax(full, nb*copies) {
			return false
		}
		left := []int32{} // not nil: an empty subset matches nothing
		var sub [][]int32
		for l := range lists {
			if rng.Intn(2) == 0 {
				left = append(left, int32(l))
				sub = append(sub, full[l])
			}
		}
		m := Match(off, adj, left, nb, copies)
		for l, r := range m {
			if r != -1 && !slices.Contains(left, int32(l)) {
				t.Fatalf("left vertex %d outside the listed subset matched", l)
			}
		}
		return checkMatching(t, full, nb*copies, m) == bruteMax(sub, nb*copies)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLargeBipartite(t *testing.T) {
	// n disjoint pairs: matching size must be exactly n.
	const n = 5000
	lists := make([][]int32, n)
	for i := range lists {
		lists[i] = []int32{int32((i + 1) % n), int32(i)}
	}
	off, adj := csr(lists)
	if size := checkMatching(t, lists, n, Match(off, adj, nil, n, 1)); size != n {
		t.Fatalf("cycle graph matching size %d, want %d", size, n)
	}
}

// TestAddEdgePanics: the range check of every edge, made once per call — an
// adjacency entry outside [0, nBase), an offset that decreases or overruns
// the adjacency, a listed left vertex outside the table, or fewer than one
// copy panics.
func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name      string
		off, adj  []int32
		left      []int32
		nBase, cp int
	}{
		{"negative base", []int32{0, 1}, []int32{-1}, nil, 2, 1},
		{"base past nBase", []int32{0, 1}, []int32{2}, nil, 2, 1},
		{"decreasing offset", []int32{0, 2, 1}, []int32{0, 1}, nil, 2, 1},
		{"offset past adj", []int32{0, 3}, []int32{0, 1}, nil, 2, 1},
		{"left past table", []int32{0, 1}, []int32{0}, []int32{1}, 2, 1},
		{"zero copies", []int32{0, 1}, []int32{0}, nil, 2, 0},
		{"no offsets", nil, nil, nil, 2, 1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Match did not panic", c.name)
				}
			}()
			Match(c.off, c.adj, c.left, c.nBase, c.cp)
		}()
	}
}
