// Package matching implements maximum bipartite matching via the
// Hopcroft–Karp algorithm. It is the substrate for the second phase of the
// GCR&M pattern-construction algorithm (Section V-A of the paper), which
// assigns pattern cells to node duplicates through two matching rounds.
package matching

import "fmt"

// Graph is a bipartite graph with nLeft left vertices and nRight right
// vertices, identified by dense indices.
type Graph struct {
	nLeft, nRight int
	adj           [][]int32 // adj[l] lists right neighbours of left vertex l
}

// NewGraph returns an empty bipartite graph.
func NewGraph(nLeft, nRight int) *Graph {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("matching: invalid sizes %d, %d", nLeft, nRight))
	}
	return &Graph{nLeft: nLeft, nRight: nRight, adj: make([][]int32, nLeft)}
}

// AddEdge connects left vertex l to right vertex r.
func (g *Graph) AddEdge(l, r int) {
	if l < 0 || l >= g.nLeft || r < 0 || r >= g.nRight {
		panic(fmt.Sprintf("matching: edge (%d,%d) out of range %dx%d", l, r, g.nLeft, g.nRight))
	}
	g.adj[l] = append(g.adj[l], int32(r))
}

const none = int32(-1)

// MaxMatching computes a maximum matching and returns, for each left vertex,
// the matched right vertex or -1. The second return value is the matching
// size. Runs in O(E√V) (Hopcroft–Karp).
func (g *Graph) MaxMatching() ([]int, int) {
	matchL := make([]int32, g.nLeft)
	matchR := make([]int32, g.nRight)
	for i := range matchL {
		matchL[i] = none
	}
	for i := range matchR {
		matchR[i] = none
	}
	dist := make([]int32, g.nLeft)
	queue := make([]int32, 0, g.nLeft)

	const inf = int32(1) << 30
	bfs := func() bool {
		queue = queue[:0]
		for l := int32(0); l < int32(g.nLeft); l++ {
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
			for _, r := range g.adj[l] {
				l2 := matchR[r]
				if l2 == none {
					found = true
				} else if dist[l2] == inf {
					dist[l2] = dist[l] + 1
					queue = append(queue, l2)
				}
			}
		}
		return found
	}

	var dfs func(l int32) bool
	dfs = func(l int32) bool {
		for _, r := range g.adj[l] {
			l2 := matchR[r]
			if l2 == none || (dist[l2] == dist[l]+1 && dfs(l2)) {
				matchL[l] = r
				matchR[r] = l
				return true
			}
		}
		dist[l] = inf
		return false
	}

	size := 0
	for bfs() {
		for l := int32(0); l < int32(g.nLeft); l++ {
			if matchL[l] == none && dfs(l) {
				size++
			}
		}
	}
	out := make([]int, g.nLeft)
	for i, r := range matchL {
		out[i] = int(r)
	}
	return out, size
}
