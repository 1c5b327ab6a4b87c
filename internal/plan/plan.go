// Package plan compiles a (task graph, distribution) pair into the flat,
// immutable execution plan the runtime's engines run from — the runtime
// analogue of the paper's "the pattern is computed once and for all", and the
// static half of the hybrid static/dynamic split of Donfack–Grigori–Gropp–
// Kale: placement, dependency counts, input resolution and message routing
// are fixed ahead of time; only what a run decides (dispatch order, which
// worker runs a task, fault recovery) stays dynamic.
//
// Compile infers the graph's program once (dag.Infer) and copies every task
// into the plan. Everything it learns lands in a handful of backing slices —
// no per-task slice, no map — so a plan can be shared, read-only, by every
// engine of a run and by any number of concurrent runs.
//
// # Index spaces
//
// Every index in a plan is global, and every node's share of an index space
// is one contiguous range, so an engine addresses its flat per-run state by
// (global index − start of its range):
//
//   - tasks are blocked by owner rank, each node's block in dag.ForEachTask
//     order (Tasks);
//   - tiles — every tile some task writes — are blocked by owner rank in
//     first-write order (Tiles); a tile's writers are listed by version;
//   - slots are the remote tile versions a node awaits, one per (consumer
//     node, producer task) — an entry of the producer's destination list —
//     blocked by consumer rank in program order of the producers (Slots).
//     A slot knows its producer, the local tasks waiting on its arrival, and
//     how many local input references read it (the received copy is
//     released after that many consumers ran).
//
// A task's input reference is either a tile index (ref >= 0: the in-place
// buffer of a tile the task's own node owns) or the complement of a slot
// index (ref < 0: the received copy in slot ^ref).
//
// A compiled plan is a validated one: Compile returns a descriptive error
// for every (graph, distribution) pair the versioned tile protocol cannot
// serve, so engines never discover one mid-run.
package plan

import (
	"sort"

	"anybc/internal/dag"
	"anybc/internal/dist"
)

// Plan is the compiled form of one (graph, distribution) pair. It is
// immutable after Compile: every method only reads, and the slices methods
// return alias the plan's backing arrays and must not be written.
type Plan struct {
	g dag.Graph
	d dist.Distribution

	nodeOff []int32 // P+1: node r owns tasks nodeOff[r] <= t < nodeOff[r+1]
	task    []dag.Task
	key     []int64 // sched.Key
	ver     []int32 // version of the output tile the task produces
	out     []int32 // output tile
	reduce  []bool  // dag.Program.ReducePartial

	depOff, dep   []int32 // predecessors, in Dependencies visit order
	inOff, in     []int32 // input references, in InputTiles visit order
	succOff, succ []int32 // successors on the task's own node, in Successors visit order
	// Publish record (dag.Route): the distinct remote owner ranks of the
	// task's successors in first-visit order and, for each, the slot on that
	// rank awaiting this task's output.
	dstOff  []int32
	dstRank []int
	dstSlot []int32

	tileOff       []int32 // P+1
	tileI, tileJ  []int32
	wrOff, writer []int32 // per tile, its writer tasks by version
	rows, cols    int
	grid          []int32 // rows×cols, tile index + 1; 0 where no task writes

	slotOff       []int32 // P+1
	slotProd      []int32 // producer task
	slotReaders   []int32
	waitOff, wait []int32 // per slot, the consumer node's tasks it releases
}

// Graph returns the compiled graph. No engine consults it; RunPlan asks it for
// what depends on a run's tile size (Flops, once per task kind), never for
// structure.
func (p *Plan) Graph() dag.Graph { return p.g }

// Dist returns the compiled distribution.
func (p *Plan) Dist() dist.Distribution { return p.d }

// Nodes returns the node count P.
func (p *Plan) Nodes() int { return len(p.nodeOff) - 1 }

// Tasks returns the range [lo, hi) of tasks node rank owns.
func (p *Plan) Tasks(rank int) (lo, hi int32) { return p.nodeOff[rank], p.nodeOff[rank+1] }

// Tiles returns the range [lo, hi) of tiles node rank owns.
func (p *Plan) Tiles(rank int) (lo, hi int32) { return p.tileOff[rank], p.tileOff[rank+1] }

// Slots returns the range [lo, hi) of slots node rank awaits.
func (p *Plan) Slots(rank int) (lo, hi int32) { return p.slotOff[rank], p.slotOff[rank+1] }

// Owner returns the rank owning task t.
func (p *Plan) Owner(t int32) int {
	return sort.Search(p.Nodes(), func(r int) bool { return p.nodeOff[r+1] > t })
}

// Task returns task t of the graph.
func (p *Plan) Task(t int32) dag.Task { return p.task[t] }

// Key returns the sched.Key of task t.
func (p *Plan) Key(t int32) int64 { return p.key[t] }

// Version returns the version of its output tile that task t produces.
func (p *Plan) Version(t int32) int32 { return p.ver[t] }

// Out returns the tile task t writes.
func (p *Plan) Out(t int32) int32 { return p.out[t] }

// Reduce reports whether task t produces a reduction partial
// (dag.Program.ReducePartial): shipped point-to-point when one remote node
// consumes it.
func (p *Plan) Reduce(t int32) bool { return p.reduce[t] }

// NumDeps returns the number of predecessors of task t.
func (p *Plan) NumDeps(t int32) int32 { return p.depOff[t+1] - p.depOff[t] }

// Deps returns the predecessors of task t, in Dependencies visit order.
func (p *Plan) Deps(t int32) []int32 { return p.dep[p.depOff[t]:p.depOff[t+1]] }

// Inputs returns the input references of task t in InputTiles visit order:
// a tile index of t's own node, or the complement of one of its slots.
func (p *Plan) Inputs(t int32) []int32 { return p.in[p.inOff[t]:p.inOff[t+1]] }

// InputBase returns the position of task t's first input reference among
// those of all tasks, for t up to and including the task count: the layout
// of one flat kernel-input buffer per node, InputBase(hi)-InputBase(lo)
// entries for the tasks [lo, hi).
func (p *Plan) InputBase(t int32) int32 { return p.inOff[t] }

// Succs returns the successors of task t on t's own node — the tasks its
// completion releases directly — in Successors visit order.
func (p *Plan) Succs(t int32) []int32 { return p.succ[p.succOff[t]:p.succOff[t+1]] }

// Dsts returns the distinct remote ranks owning successors of task t, in
// Successors first-visit order: the destinations of t's output version.
func (p *Plan) Dsts(t int32) []int { return p.dstRank[p.dstOff[t]:p.dstOff[t+1]] }

// SlotAt returns the slot in which node rank awaits the output of task t,
// or -1 when rank holds no task depending on t.
func (p *Plan) SlotAt(t int32, rank int) int32 {
	for e := p.dstOff[t]; e < p.dstOff[t+1]; e++ {
		if p.dstRank[e] == rank {
			return p.dstSlot[e]
		}
	}
	return -1
}

// TileCoords returns the matrix coordinates of a tile.
func (p *Plan) TileCoords(tile int32) (i, j int) { return int(p.tileI[tile]), int(p.tileJ[tile]) }

// Producer returns the task writing version v of tile (i, j), or -1 when no
// task does.
func (p *Plan) Producer(i, j, v int32) int32 {
	if i < 0 || j < 0 || int(i) >= p.rows || int(j) >= p.cols {
		return -1
	}
	tile := p.grid[int(i)*p.cols+int(j)] - 1
	if tile < 0 || v < 0 || v >= p.wrOff[tile+1]-p.wrOff[tile] {
		return -1
	}
	return p.writer[p.wrOff[tile]+v]
}

// SlotProducer returns the task whose output version a slot awaits.
func (p *Plan) SlotProducer(slot int32) int32 { return p.slotProd[slot] }

// SlotReaders returns, for the slots [lo, hi), how many input references of
// the consumer node's tasks read each.
func (p *Plan) SlotReaders(lo, hi int32) []int32 { return p.slotReaders[lo:hi] }

// Waiters returns the tasks a slot's arrival releases, in ForEachTask order;
// a task appears once per dependency the arrival resolves.
func (p *Plan) Waiters(slot int32) []int32 { return p.wait[p.waitOff[slot]:p.waitOff[slot+1]] }
