package dag

import "fmt"

// Program is a tile algorithm written the way Chameleon hands one to StarPU:
// a sequential stream of tasks, each declaring the tile it writes and the
// tiles it reads. Nothing in a Program names a dependency; Build infers all
// of them from the submission order.
type Program struct {
	// Name identifies the algorithm (Graph.Name).
	Name string
	// Tiles is mt, the tile dimension of the matrix (Graph.Tiles).
	Tiles int
	// Tasks submits every task exactly once, in an order in which running
	// them one after the other computes the algorithm.
	Tasks func(submit func(Task))
	// OutputTile returns the one tile t writes (and may also read).
	OutputTile func(t Task) (i, j int)
	// InputTiles visits the tiles t reads besides its output tile.
	InputTiles func(t Task, visit func(i, j int))
	// Flops returns the floating-point operations of t for tile size b.
	Flops func(t Task, b int) float64
	// OutputBytes, when set, gives the wire size of t's output tile
	// (SizedGraph); nil means uniform 8·b² tiles.
	OutputBytes func(t Task, b int) int
	// ReducePartial, when set, marks the tasks whose output is a reduction
	// partial (ReduceGraph); nil means none is.
	ReducePartial func(t Task) bool
}

// Built is the task graph Build infers from a Program. Tasks are numbered in
// submission order, so increasing ids are a topological order and
// ForEachTask replays the program.
type Built struct {
	p     Program
	tasks []Task
	id    map[Task]int32
	// Predecessors and successors of task id are pred[predOff[id]:predOff[id+1]]
	// and succ[succOff[id]:succOff[id+1]].
	predOff, pred []int32
	succOff, succ []int32
}

// Build infers the dependency graph of p, as a sequential-task-flow runtime
// does at submission: a task depends on the last task submitted before it
// that wrote each tile it reads, then on the last one that wrote the tile it
// writes. Successors are the inverse relation, each task's consumers listed
// in submission order — the order that fixes a broadcast's destination list,
// hence the shape of its tree.
//
// Only read-after-write and write-after-write orderings are inferred. A task
// that overwrites a tile an earlier task still reads gets no edge from that
// reader: the tile algorithms here only ever read a tile's final version, and
// plan.Compile rejects a graph where that does not hold.
//
// A tile listed more than once among a task's inputs, or listed there
// although it is the output tile, yields one edge, not two: every consumer of
// Dependencies counts one release per visit. Submitting a task twice panics —
// ID could not tell the two apart.
func Build(p Program) *Built {
	g := &Built{p: p, id: map[Task]int32{}}
	p.Tasks(func(t Task) {
		if _, dup := g.id[t]; dup {
			panic(fmt.Sprintf("dag: program %s submits %v twice", p.Name, t))
		}
		g.id[t] = int32(len(g.tasks))
		g.tasks = append(g.tasks, t)
	})
	n := len(g.tasks)
	g.predOff = make([]int32, n+1)
	g.succOff = make([]int32, n+1)
	lastWriter := map[[2]int]int32{}
	var start int
	dependOn := func(i, j int) {
		w, written := lastWriter[[2]int{i, j}]
		if !written {
			return
		}
		for _, q := range g.pred[start:] {
			if q == w {
				return
			}
		}
		g.pred = append(g.pred, w)
		g.succOff[w+1]++
	}
	for id, t := range g.tasks {
		start = len(g.pred)
		p.InputTiles(t, dependOn)
		oi, oj := p.OutputTile(t)
		dependOn(oi, oj)
		lastWriter[[2]int{oi, oj}] = int32(id)
		g.predOff[id+1] = int32(len(g.pred))
	}
	for id := 0; id < n; id++ {
		g.succOff[id+1] += g.succOff[id]
	}
	g.succ = make([]int32, len(g.pred))
	next := append([]int32(nil), g.succOff[:n]...)
	for id := range g.tasks {
		for _, w := range g.pred[g.predOff[id]:g.predOff[id+1]] {
			g.succ[next[w]] = int32(id)
			next[w]++
		}
	}
	return g
}

// Name implements Graph.
func (g *Built) Name() string { return g.p.Name }

// Tiles implements Graph.
func (g *Built) Tiles() int { return g.p.Tiles }

// NumTasks implements Graph.
func (g *Built) NumTasks() int { return len(g.tasks) }

// ID implements Graph: the task's position in the program. All four fields
// identify a task, so t must be spelled as the program submitted it.
func (g *Built) ID(t Task) int {
	id, ok := g.id[t]
	if !ok {
		panic(fmt.Sprintf("dag: task %v is not a task of %s", t, g.p.Name))
	}
	return int(id)
}

// TaskOf implements Graph.
func (g *Built) TaskOf(id int) Task { return g.tasks[id] }

// Dependencies implements Graph: the last writers of t's input tiles in
// InputTiles order, then the previous writer of its output tile.
func (g *Built) Dependencies(t Task, visit func(Task)) {
	id := g.ID(t)
	for _, q := range g.pred[g.predOff[id]:g.predOff[id+1]] {
		visit(g.tasks[q])
	}
}

// NumDependencies implements Graph.
func (g *Built) NumDependencies(t Task) int {
	id := g.ID(t)
	return int(g.predOff[id+1] - g.predOff[id])
}

// Successors implements Graph: t's consumers in submission order.
func (g *Built) Successors(t Task, visit func(Task)) {
	id := g.ID(t)
	for _, q := range g.succ[g.succOff[id]:g.succOff[id+1]] {
		visit(g.tasks[q])
	}
}

// OutputTile implements Graph.
func (g *Built) OutputTile(t Task) (int, int) { return g.p.OutputTile(t) }

// InputTiles implements Graph.
func (g *Built) InputTiles(t Task, visit func(i, j int)) { g.p.InputTiles(t, visit) }

// Flops implements Graph.
func (g *Built) Flops(t Task, b int) float64 { return g.p.Flops(t, b) }

// TotalFlops implements Graph.
func (g *Built) TotalFlops(b int) float64 {
	total := 0.0
	for _, t := range g.tasks {
		total += g.p.Flops(t, b)
	}
	return total
}

// OutputBytes implements SizedGraph.
func (g *Built) OutputBytes(t Task, b int) int {
	if g.p.OutputBytes == nil {
		return 8 * b * b
	}
	return g.p.OutputBytes(t, b)
}

// ReducePartial implements ReduceGraph.
func (g *Built) ReducePartial(t Task) bool {
	return g.p.ReducePartial != nil && g.p.ReducePartial(t)
}
