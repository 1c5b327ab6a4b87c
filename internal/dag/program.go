package dag

import (
	"fmt"
	"sync"
)

// Program is a tile algorithm written the way Chameleon hands one to StarPU:
// a sequential stream of tasks, each declaring the tile it writes and the
// tiles it reads. Nothing in a Program names a dependency; Infer derives all
// of them from the submission order.
type Program struct {
	// Name identifies the algorithm (Graph.Name).
	Name string
	// Tiles is mt, the tile dimension of the matrix (Graph.Tiles).
	Tiles int
	// Iterations, when positive, states that the program runs in that many
	// iterations, each after the first continuing the work of the one
	// before: every task of a later iteration depends on an earlier task,
	// and a task's output is read only by tasks of its own iteration and the
	// next. Zero states nothing: the program is one iteration.
	Iterations int
	// Tasks submits the tasks of iteration l, each exactly once, in an order
	// in which running the iterations one after the other, each task after
	// the one submitted before it, computes the algorithm.
	Tasks func(l int, submit func(Task))
	// OutputTile returns the one tile t writes (and may also read).
	OutputTile func(t Task) (i, j int)
	// InputTiles visits the tiles t reads besides its output tile.
	InputTiles func(t Task, visit func(i, j int))
	// Flops returns the floating-point operations of t for tile size b.
	Flops func(t Task, b int) float64
	// OutputBytes, when set, gives the wire size of t's output tile; nil
	// means uniform 8·b² tiles.
	OutputBytes func(t Task, b int) int
	// ReducePartial, when set, marks the tasks whose output is a reduction
	// partial: a layer accumulator whose only possible remote consumer is
	// the combine task folding it toward the canonical tile. Nil means none
	// is.
	ReducePartial func(t Task) bool
}

// forEach submits every task of p, iteration by iteration.
func (p Program) forEach(submit func(Task)) {
	for l := 0; l < max(p.Iterations, 1); l++ {
		p.Tasks(l, submit)
	}
}

// Built is a Program as a Graph. Tasks are numbered in submission order, so
// increasing ids are a topological order and ForEachTask replays the program.
// Nothing is inferred until a query by Task value needs it; that first query
// infers the whole graph and keeps it.
type Built struct {
	p     Program
	count sync.Once // NumTasks
	n     int
	full  sync.Once // inferred
	w     *Inference
	id    map[Task]int32
}

// Build returns p as a Graph.
func Build(p Program) *Built { return &Built{p: p} }

// inferred returns the inference of every iteration, running it on first
// use. Submitting a task twice panics — ID could not tell the two apart — and
// so does a program that breaks its own statement.
func (g *Built) inferred() *Inference {
	g.full.Do(func() {
		w := Infer(g.p, nil)
		for w.Next() {
		}
		if err := w.Err(); err != nil {
			panic(err)
		}
		g.id = make(map[Task]int32, w.End())
		for pos := int32(0); pos < w.End(); pos++ {
			t := w.Task(pos)
			if _, dup := g.id[t]; dup {
				panic(fmt.Sprintf("dag: program %s submits %v twice", g.p.Name, t))
			}
			g.id[t] = pos
		}
		g.w = w
	})
	return g.w
}

// Program implements Graph.
func (g *Built) Program() Program { return g.p }

// Name implements Graph.
func (g *Built) Name() string { return g.p.Name }

// Tiles implements Graph.
func (g *Built) Tiles() int { return g.p.Tiles }

// NumTasks implements Graph. It counts the submissions, inferring nothing.
func (g *Built) NumTasks() int {
	g.count.Do(func() { g.p.forEach(func(Task) { g.n++ }) })
	return g.n
}

// ID implements Graph. All four fields identify a task, so t must be spelled
// as the program submitted it.
func (g *Built) ID(t Task) int {
	g.inferred()
	id, ok := g.id[t]
	if !ok {
		panic(fmt.Sprintf("dag: task %v is not a task of %s", t, g.p.Name))
	}
	return int(id)
}

// TaskOf implements Graph.
func (g *Built) TaskOf(id int) Task { return g.inferred().Task(int32(id)) }

// Dependencies implements Graph: the last writers of t's input tiles in
// InputTiles order, then the previous writer of its output tile.
func (g *Built) Dependencies(t Task, visit func(Task)) {
	w := g.inferred()
	w.Preds(int32(g.ID(t)), func(q int32) { visit(w.Task(q)) })
}

// NumDependencies implements Graph.
func (g *Built) NumDependencies(t Task) int { return g.inferred().NumPreds(int32(g.ID(t))) }

// Successors implements Graph: t's consumers in submission order.
func (g *Built) Successors(t Task, visit func(Task)) {
	w := g.inferred()
	w.Succs(int32(g.ID(t)), func(q int32) { visit(w.Task(q)) })
}

// OutputTile implements Graph.
func (g *Built) OutputTile(t Task) (int, int) { return g.p.OutputTile(t) }

// InputTiles implements Graph.
func (g *Built) InputTiles(t Task, visit func(i, j int)) { g.p.InputTiles(t, visit) }

// Flops implements Graph.
func (g *Built) Flops(t Task, b int) float64 { return g.p.Flops(t, b) }

// TotalFlops implements Graph: the per-task sum, in submission order.
func (g *Built) TotalFlops(b int) float64 {
	total := 0.0
	g.p.forEach(func(t Task) { total += g.p.Flops(t, b) })
	return total
}
