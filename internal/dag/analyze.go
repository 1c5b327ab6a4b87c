package dag

// ForEachTask visits every task of the graph in submission order, a valid
// topological order: dependencies always point from earlier-visited tasks to
// later-visited ones. It runs the program and infers nothing.
func ForEachTask(g Graph, visit func(Task)) { g.Program().forEach(visit) }

// forEachSettled runs w to the end of its program, one iteration at a time,
// and hands visit each task in submission order once it is settled; w
// forgets the task after the visit. A program that breaks its own statement
// panics, as the queries of Built do.
func forEachSettled(w *Inference, visit func(pos int32)) {
	for pos := int32(0); w.Next(); {
		for ; pos < w.Settled(); pos++ {
			visit(pos)
			w.Done(pos)
		}
	}
	if err := w.Err(); err != nil {
		panic(err)
	}
}

// CriticalPathFlops returns the longest dependency-path weight through the
// graph, with each task weighted by its flop count for tile size b. Dividing
// TotalFlops by this value bounds the achievable parallel speedup.
func CriticalPathFlops(g Graph, b int) float64 {
	w := Infer(g.Program(), nil)
	var longest []float64 // by position
	cp, best := 0.0, 0.0
	longer := func(q int32) { best = max(best, longest[q]) }
	forEachSettled(w, func(pos int32) {
		best = 0
		w.Preds(pos, longer)
		v := best + g.Flops(w.Task(pos), b)
		longest = append(longest, v)
		cp = max(cp, v)
	})
	return cp
}

// CommVolumeTiles returns the exact number of tile transfers the
// owner-computes rule induces for graph g under the tile→node map owner:
// for every task output consumed by tasks on other nodes, the tile version
// is sent once per distinct remote consumer node (Inference.Route). This is
// the measured counterpart of the paper's Equations (1) and (2).
func CommVolumeTiles(g Graph, owner func(i, j int) int) int64 {
	w := Infer(g.Program(), owner)
	var volume int64
	var r Route
	forEachSettled(w, func(pos int32) {
		w.Route(pos, &r)
		volume += int64(len(r.Dsts))
	})
	return volume
}
