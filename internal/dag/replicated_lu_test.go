package dag

import (
	"fmt"
	"math"
	"testing"
)

func replicatedCases() []struct{ mt, c int } {
	return []struct{ mt, c int }{
		{1, 1}, {1, 3}, {2, 2}, {3, 2}, {4, 2}, {5, 2},
		{4, 3}, {5, 3}, {6, 3}, {4, 4}, {6, 4}, {7, 4},
		{3, 5}, {8, 2}, {8, 4},
	}
}

func TestReplicatedIDRoundtrip(t *testing.T) {
	for _, tc := range replicatedCases() {
		g := NewReplicatedLU(tc.mt, tc.c)
		seen := make([]bool, g.NumTasks())
		count := 0
		ForEachTask(g, func(task Task) {
			count++
			id := g.ID(task)
			if id < 0 || id >= g.NumTasks() {
				t.Fatalf("%s mt=%d: id %d out of range for %v", g.Name(), tc.mt, id, task)
			}
			if seen[id] {
				t.Fatalf("%s mt=%d: id %d assigned twice (%v)", g.Name(), tc.mt, id, task)
			}
			seen[id] = true
			if back := g.TaskOf(id); back != task {
				t.Fatalf("%s mt=%d: TaskOf(ID(%v)) = %v", g.Name(), tc.mt, task, back)
			}
		})
		if count != g.NumTasks() {
			t.Fatalf("%s mt=%d: ForEachTask visited %d of %d tasks",
				g.Name(), tc.mt, count, g.NumTasks())
		}
	}
}

func TestReplicatedDepsSuccsAreInverse(t *testing.T) {
	for _, tc := range replicatedCases() {
		g := NewReplicatedLU(tc.mt, tc.c)
		succOf := map[string]bool{}
		ForEachTask(g, func(task Task) {
			g.Successors(task, func(s Task) {
				e := fmt.Sprint(task, "->", s)
				if succOf[e] {
					t.Fatalf("%s mt=%d: duplicate successor edge %s", g.Name(), tc.mt, e)
				}
				succOf[e] = true
			})
		})
		depEdges := map[string]bool{}
		ForEachTask(g, func(task Task) {
			g.Dependencies(task, func(d Task) {
				e := fmt.Sprint(d, "->", task)
				if depEdges[e] {
					t.Fatalf("%s mt=%d: duplicate dependency edge %s", g.Name(), tc.mt, e)
				}
				depEdges[e] = true
			})
		})
		if len(succOf) != len(depEdges) {
			t.Fatalf("%s mt=%d: %d successor edges vs %d dependency edges",
				g.Name(), tc.mt, len(succOf), len(depEdges))
		}
		for e := range depEdges {
			if !succOf[e] {
				t.Fatalf("%s mt=%d: dependency edge %s missing from successors",
					g.Name(), tc.mt, e)
			}
		}
	}
}

func TestReplicatedNumDependenciesMatches(t *testing.T) {
	for _, tc := range replicatedCases() {
		g := NewReplicatedLU(tc.mt, tc.c)
		ForEachTask(g, func(task Task) {
			n := 0
			g.Dependencies(task, func(Task) { n++ })
			if got := g.NumDependencies(task); got != n {
				t.Fatalf("%s mt=%d: NumDependencies(%v) = %d, visits %d",
					g.Name(), tc.mt, task, got, n)
			}
		})
	}
}

func TestReplicatedForEachTaskIsTopological(t *testing.T) {
	for _, tc := range replicatedCases() {
		g := NewReplicatedLU(tc.mt, tc.c)
		visited := make([]bool, g.NumTasks())
		ForEachTask(g, func(task Task) {
			g.Dependencies(task, func(d Task) {
				if !visited[g.ID(d)] {
					t.Fatalf("%s mt=%d: %v visited before its dependency %v",
						g.Name(), tc.mt, task, d)
				}
			})
			visited[g.ID(task)] = true
		})
	}
}

// TestReplicatedC1MatchesLU checks the degenerate case: with one layer the
// replicated graph is NewLU — same task set, same dependency edges, same
// per-tile write order (so the runtime computes bit-identical factors).
func TestReplicatedC1MatchesLU(t *testing.T) {
	for mt := 1; mt <= 8; mt++ {
		rep, lu := NewReplicatedLU(mt, 1), NewLU(mt)
		if rep.NumTasks() != lu.NumTasks() {
			t.Fatalf("mt=%d: %d tasks vs LU's %d", mt, rep.NumTasks(), lu.NumTasks())
		}
		edges := func(g Graph) map[string]bool {
			m := map[string]bool{}
			ForEachTask(g, func(task Task) {
				m[task.String()] = true
				g.Dependencies(task, func(d Task) {
					m[fmt.Sprint(d, "->", task)] = true
				})
			})
			return m
		}
		re, le := edges(rep), edges(lu)
		if len(re) != len(le) {
			t.Fatalf("mt=%d: %d tasks+edges vs LU's %d", mt, len(re), len(le))
		}
		for e := range le {
			if !re[e] {
				t.Fatalf("mt=%d: LU edge %s missing from replicated c=1", mt, e)
			}
		}
	}
}

// TestReplicatedVersionsLinear checks that every tile's writers form a single
// serialized chain: each writer after a tile's first depends on the one
// before it in topological visit order. This is what the runtime's
// versioned-tile protocol requires of any graph it executes.
func TestReplicatedVersionsLinear(t *testing.T) {
	for _, tc := range replicatedCases() {
		g := NewReplicatedLU(tc.mt, tc.c)
		last := map[[2]int]Task{}
		ForEachTask(g, func(task Task) {
			i, j := g.OutputTile(task)
			key := [2]int{i, j}
			if prev, ok := last[key]; ok {
				ordered := false
				g.Dependencies(task, func(d Task) { ordered = ordered || d == prev })
				if !ordered {
					t.Fatalf("%s mt=%d: %v writes (%d,%d) unordered after its previous writer %v",
						g.Name(), tc.mt, task, i, j, prev)
				}
			}
			last[key] = task
		})
	}
}

// TestReplicatedGEMMLayerSplit checks the round-robin slicing: iteration ℓ's
// update of tile (i, j) is canonical (GEMMLU) exactly when ℓ and the tile's
// panel iteration min(i, j) fall on the same layer, and the ReduceAdd count
// of a tile equals its number of contributing non-canonical layers.
func TestReplicatedGEMMLayerSplit(t *testing.T) {
	for _, tc := range replicatedCases() {
		g := NewReplicatedLU(tc.mt, tc.c)
		reds := map[[2]int]int{}
		ForEachTask(g, func(task Task) {
			switch task.Kind {
			case GEMMLU, GEMMPart:
				k := int(min(task.I, task.J))
				canonical := int(task.L)%tc.c == k%tc.c
				if canonical != (task.Kind == GEMMLU) {
					t.Fatalf("%s mt=%d: %v has wrong kind for layer split", g.Name(), tc.mt, task)
				}
			case ReduceAdd:
				reds[[2]int{int(task.I), int(task.J)}]++
			}
		})
		for tile, n := range reds {
			k := tile[0]
			if tile[1] < k {
				k = tile[1]
			}
			want := k
			if want > tc.c-1 {
				want = tc.c - 1
			}
			if n != want {
				t.Fatalf("%s mt=%d: tile %v has %d reduces, want %d", g.Name(), tc.mt, tile, n, want)
			}
		}
	}
}

func TestReplicatedTotalFlops(t *testing.T) {
	for _, tc := range replicatedCases() {
		g := NewReplicatedLU(tc.mt, tc.c)
		sum := 0.0
		ForEachTask(g, func(task Task) { sum += g.Flops(task, 8) })
		if total := g.TotalFlops(8); math.Abs(total-sum) > 1e-9*sum {
			t.Fatalf("%s mt=%d: TotalFlops = %g, per-task sum %g", g.Name(), tc.mt, total, sum)
		}
	}
}
