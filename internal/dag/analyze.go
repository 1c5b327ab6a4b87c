package dag

// ForEachTask visits every task of the graph in a valid topological order:
// dependencies always point from earlier-visited tasks to later-visited
// ones. A graph whose ids are not themselves such an order (the closed-form
// LU and Cholesky, numbered kind by kind) supplies one through a ForEachTask
// method; any other graph — every Built one, numbered in program order, and
// external graphs, which must guarantee the same — is visited by increasing
// id.
func ForEachTask(g Graph, visit func(Task)) {
	if o, ok := g.(interface{ ForEachTask(visit func(Task)) }); ok {
		o.ForEachTask(visit)
		return
	}
	for id := 0; id < g.NumTasks(); id++ {
		visit(g.TaskOf(id))
	}
}

// CriticalPathFlops returns the longest dependency-path weight through the
// graph, with each task weighted by its flop count for tile size b. Dividing
// TotalFlops by this value bounds the achievable parallel speedup.
func CriticalPathFlops(g Graph, b int) float64 {
	longest := make([]float64, g.NumTasks())
	cp := 0.0
	ForEachTask(g, func(t Task) {
		best := 0.0
		g.Dependencies(t, func(d Task) {
			if v := longest[g.ID(d)]; v > best {
				best = v
			}
		})
		v := best + g.Flops(t, b)
		longest[g.ID(t)] = v
		if v > cp {
			cp = v
		}
	})
	return cp
}

// CommVolumeTiles returns the exact number of tile transfers the
// owner-computes rule induces for graph g under the tile→node map owner:
// for every task output consumed by tasks on other nodes, the tile version
// is sent once per distinct remote consumer node. This is the measured
// counterpart of the paper's Equations (1) and (2).
func CommVolumeTiles(g Graph, owner func(i, j int) int) int64 {
	var volume int64
	seen := map[int]struct{}{}
	ForEachTask(g, func(t Task) {
		oi, oj := g.OutputTile(t)
		src := owner(oi, oj)
		for k := range seen {
			delete(seen, k)
		}
		g.Successors(t, func(s Task) {
			si, sj := g.OutputTile(s)
			dst := owner(si, sj)
			if dst != src {
				seen[dst] = struct{}{}
			}
		})
		volume += int64(len(seen))
	})
	return volume
}
