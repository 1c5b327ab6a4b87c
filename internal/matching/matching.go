// Package matching implements maximum bipartite matching via the
// Hopcroft–Karp algorithm. It is the substrate for the second phase of the
// GCR&M pattern-construction algorithm (Section V-A of the paper), which
// assigns pattern cells to node duplicates through two matching rounds.
package matching

import (
	"fmt"
	"math"
)

const none = int32(-1)

// Match computes a maximum matching of the left vertices listed in left
// (nil: every left vertex) against nBase·copies right vertices, in
// O(E√V) (Hopcroft–Karp). The graph is one flat adjacency: left vertex l
// reaches the base vertices adj[off[l]:off[l+1]], and each base vertex b
// stands for copies interchangeable right vertices b·copies+c, c = 0 …
// copies−1, listed in that order after one another — the graph an explicit
// edge to every copy would build, never built. It returns, for each left
// vertex, the matched right vertex b·copies+c or -1.
// A malformed adjacency (an offset that decreases or overruns adj, a base
// vertex outside [0, nBase), a left vertex outside the table) panics.
func Match(off, adj, left []int32, nBase, copies int) []int32 {
	if len(off) == 0 || nBase < 0 || copies < 1 || int64(nBase)*int64(copies) > math.MaxInt32 {
		panic(fmt.Sprintf("matching: invalid sizes %d offsets, %d base vertices, %d copies", len(off), nBase, copies))
	}
	nLeft := int32(len(off) - 1)
	for l := int32(0); l < nLeft; l++ {
		if off[l] < 0 || off[l] > off[l+1] || int(off[l+1]) > len(adj) {
			panic(fmt.Sprintf("matching: offsets %d, %d of left vertex %d out of order or past %d edges", off[l], off[l+1], l, len(adj)))
		}
	}
	for i, b := range adj {
		if b < 0 || int(b) >= nBase {
			panic(fmt.Sprintf("matching: edge %d reaches base vertex %d outside [0, %d)", i, b, nBase))
		}
	}
	if left == nil {
		left = make([]int32, nLeft)
		for l := range left {
			left[l] = int32(l)
		}
	}
	for _, l := range left {
		if l < 0 || l >= nLeft {
			panic(fmt.Sprintf("matching: left vertex %d outside [0, %d)", l, nLeft))
		}
	}

	k := int32(copies)
	matchL := make([]int32, nLeft)
	matchR := make([]int32, nBase*copies)
	for i := range matchL {
		matchL[i] = none
	}
	for i := range matchR {
		matchR[i] = none
	}
	dist := make([]int32, nLeft)
	queue := make([]int32, 0, len(left))

	const inf = int32(1) << 30
	bfs := func() bool {
		queue = queue[:0]
		for _, l := range left {
			if matchL[l] == none {
				dist[l] = 0
				queue = append(queue, l)
			} else {
				dist[l] = inf
			}
		}
		found := false
		for head := 0; head < len(queue); head++ {
			l := queue[head]
			for _, b := range adj[off[l]:off[l+1]] {
				for r := b * k; r < (b+1)*k; r++ {
					l2 := matchR[r]
					if l2 == none {
						found = true
					} else if dist[l2] == inf {
						dist[l2] = dist[l] + 1
						queue = append(queue, l2)
					}
				}
			}
		}
		return found
	}

	var dfs func(l int32) bool
	dfs = func(l int32) bool {
		for _, b := range adj[off[l]:off[l+1]] {
			for r := b * k; r < (b+1)*k; r++ {
				l2 := matchR[r]
				if l2 == none || (dist[l2] == dist[l]+1 && dfs(l2)) {
					matchL[l] = r
					matchR[r] = l
					return true
				}
			}
		}
		dist[l] = inf
		return false
	}

	for bfs() {
		for _, l := range left {
			if matchL[l] == none {
				dfs(l)
			}
		}
	}
	return matchL
}
