package plan

import (
	"fmt"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/sched"
)

// visit is one task as the enumeration pass met it.
type visit struct {
	t      dag.Task
	id     int32 // Graph.ID
	own    int32 // owner rank
	oi, oj int32 // output tile coordinates
	pos    int32 // index in the plan
}

// compiler is the state of one Compile call. Its three visitor methods are
// handed to the graph once, as method values, and read the task the main pass
// is at from the cur* fields — a closure per task would cost three heap
// allocations per task, which is what compiling once is meant to end.
type compiler struct {
	*Plan
	err error

	seq    []visit
	posOf  []int32 // plan index by Graph.ID
	nodeOf []int32 // owner rank by plan index
	redg   dag.ReduceGraph

	// The four per-task tables are appended in visit order, their per-task
	// entry counts stored at cnt[task+1]; finish sums the counts into offsets
	// and regroups the entries in plan order.
	depCnt, inCnt, succCnt, dstCnt []int32
	deps, ins, succs, dstSlots     []int32
	dstRanks                       []int
	dstAt                          []int32 // where a task's destinations start in dstRanks
	stamp                          []int32 // visit+1 of the task that last listed the rank

	// Slots in creation order: consumer rank and index among that rank's
	// slots (finish blocks them by rank), producer, reader count, and the
	// (slot, waiting task) pairs in visit order.
	slotNode, slotIdx, prods, readers []int32
	slotCnt                           []int32
	waitSlot, waitTask                []int32

	// Local reads of an intermediate version, checked once every writer is
	// known.
	reads []localRead

	// The task the main pass is at.
	curVisit, cur, curTile, lo, hi int32
	curRank                        int
	curVer                         int32
	depStart                       int
	depSlot                        []int32 // slot of each dependency of cur, -1 for local ones
}

type localRead struct{ reader, tile, ver int32 }

// Compile builds the plan of graph g under distribution d in one topological
// walk: Dependencies, Successors and InputTiles are each visited once per
// task. It fails with a descriptive error — instead of letting a node panic
// or hang deep inside its event loop — when:
//
//   - a tile used by the graph is mapped outside [0, P);
//   - two tasks produce the same version of the same tile, i.e. the graph
//     does not serialize the writers of a tile (the runs would race);
//   - a task reads the initial contents of a tile owned by another node: the
//     protocol only moves tiles on task completion, so initial contents never
//     cross the network;
//   - a task reads a local tile at an intermediate version without ordering
//     itself before the tile's next writer, so the in-place update could
//     overwrite the tile while it is being read;
//   - a task reads a tile no task writes (no node materializes it), or
//     depends on a remote task that does not list it as a successor (the
//     output would never be sent): malformed graphs.
func Compile(g dag.Graph, d dist.Distribution) (*Plan, error) {
	c := &compiler{Plan: &Plan{g: g, d: d}}
	c.redg, _ = g.(dag.ReduceGraph)
	if err := c.enumerate(); err != nil {
		return nil, err
	}
	c.layout()
	n := len(c.seq)
	c.key, c.ver, c.reduce = make([]int64, n), make([]int32, n), make([]bool, n)
	c.depCnt, c.inCnt = make([]int32, n+1), make([]int32, n+1)
	c.succCnt, c.dstCnt = make([]int32, n+1), make([]int32, n+1)
	c.deps, c.ins, c.succs = make([]int32, 0, 3*n), make([]int32, 0, 2*n), make([]int32, 0, 2*n)
	c.dstAt = make([]int32, n)
	c.stamp = make([]int32, c.Nodes())
	c.slotCnt = make([]int32, c.Nodes()+1)
	onDep, onInput, onSucc := c.onDep, c.onInput, c.onSucc
	for v := range c.seq {
		s := &c.seq[v]
		c.curVisit, c.cur, c.curRank, c.curTile = int32(v), s.pos, int(s.own), c.out[s.pos]
		c.lo, c.hi = c.Tasks(c.curRank)

		c.curVer, c.depStart, c.depSlot = 0, len(c.deps), c.depSlot[:0]
		g.Dependencies(s.t, onDep)
		c.ver[c.cur] = c.curVer
		c.depCnt[c.cur+1] = int32(len(c.deps) - c.depStart)
		// A writer of version v > 0 follows one of version v-1, so the
		// versions met so far are dense and v indexes inside the tile's
		// writer list until the first collision.
		if w := &c.writer[c.wrOff[c.curTile]+c.curVer]; *w >= 0 && c.err == nil {
			c.err = fmt.Errorf("plan: %v and %v both produce version %d of tile (%d, %d): "+
				"the graph does not serialize the tile's writers", c.task[*w], s.t, c.curVer, s.oi, s.oj)
		} else {
			*w = c.cur
		}
		if c.err != nil {
			return nil, c.err
		}

		inStart := len(c.ins)
		g.InputTiles(s.t, onInput)
		c.inCnt[c.cur+1] = int32(len(c.ins) - inStart)

		succStart := len(c.succs)
		c.dstAt[c.cur] = int32(len(c.dstRanks))
		g.Successors(s.t, onSucc)
		c.succCnt[c.cur+1] = int32(len(c.succs) - succStart)
		c.dstCnt[c.cur+1] = int32(len(c.dstRanks)) - c.dstAt[c.cur]
		if c.err != nil {
			return nil, c.err
		}

		c.key[c.cur] = sched.Key(s.t)
		c.reduce[c.cur] = c.redg != nil && c.redg.ReducePartial(s.t)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c.Plan, nil
}

// enumerate lists every task with its owner and output tile, in the
// topological order the main pass replays, and counts each node's tasks.
func (c *compiler) enumerate() error {
	g, d, P := c.g, c.d, c.d.Nodes()
	c.seq = make([]visit, 0, g.NumTasks())
	c.nodeOff = make([]int32, P+1)
	dag.ForEachTask(g, func(t dag.Task) {
		if c.err != nil {
			return
		}
		oi, oj := g.OutputTile(t)
		o := d.Owner(oi, oj)
		if o < 0 || o >= P {
			c.err = fmt.Errorf("plan: %s maps tile (%d, %d) to node %d, outside 0..%d",
				d.Name(), oi, oj, o, P-1)
			return
		}
		c.seq = append(c.seq, visit{t: t, id: int32(g.ID(t)), own: int32(o), oi: int32(oi), oj: int32(oj)})
		c.nodeOff[o+1]++
		c.rows, c.cols = max(c.rows, oi+1), max(c.cols, oj+1)
	})
	prefixSum(c.nodeOff)
	return c.err
}

// layout assigns plan positions (tasks blocked by owner) and tiles (blocked
// by owner in first-write order), and sizes each tile's writer list.
func (c *compiler) layout() {
	n, P := len(c.seq), c.Nodes()
	c.task = make([]dag.Task, n)
	c.out = make([]int32, n)
	c.posOf = make([]int32, c.g.NumTasks())
	c.nodeOf = make([]int32, n)
	c.grid = make([]int32, c.rows*c.cols)
	c.tileOff = make([]int32, P+1)
	next := append([]int32(nil), c.nodeOff[:P]...)
	for v := range c.seq {
		s := &c.seq[v]
		s.pos = next[s.own]
		next[s.own]++
		c.posOf[s.id], c.nodeOf[s.pos], c.task[s.pos] = s.pos, s.own, s.t
		if cell := &c.grid[int(s.oi)*c.cols+int(s.oj)]; *cell == 0 {
			*cell = -1 // first write seen; numbered below
			c.tileOff[s.own+1]++
		}
	}
	prefixSum(c.tileOff)
	tiles := int(c.tileOff[P])
	c.tileI, c.tileJ = make([]int32, tiles), make([]int32, tiles)
	c.wrOff = make([]int32, tiles+1)
	copy(next, c.tileOff[:P])
	for v := range c.seq {
		s := &c.seq[v]
		cell := &c.grid[int(s.oi)*c.cols+int(s.oj)]
		if *cell < 0 {
			tile := next[s.own]
			next[s.own]++
			c.tileI[tile], c.tileJ[tile] = s.oi, s.oj
			*cell = tile + 1
		}
		c.out[s.pos] = *cell - 1
		c.wrOff[*cell]++
	}
	prefixSum(c.wrOff)
	c.writer = make([]int32, n)
	for i := range c.writer {
		c.writer[i] = -1
	}
}

// onDep records one predecessor of the current task: it advances the version
// the task produces past a predecessor writing the same tile, and gives a
// remote predecessor's output a slot on the current node — found through the
// producer's own destination list — with the current task waiting on it.
func (c *compiler) onDep(dt dag.Task) {
	q := c.posOf[c.g.ID(dt)]
	c.deps = append(c.deps, q)
	if c.out[q] == c.curTile && c.ver[q] >= c.curVer {
		c.curVer = c.ver[q] + 1
	}
	slot := int32(-1)
	if q < c.lo || q >= c.hi {
		for e, end := c.dstAt[q], c.dstAt[q]+c.dstCnt[q+1]; e < end; e++ {
			if c.dstRanks[e] != c.curRank {
				continue
			}
			if c.dstSlots[e] < 0 {
				c.dstSlots[e] = int32(len(c.prods))
				c.prods = append(c.prods, q)
				c.readers = append(c.readers, 0)
				c.slotNode = append(c.slotNode, int32(c.curRank))
				c.slotIdx = append(c.slotIdx, c.slotCnt[c.curRank+1])
				c.slotCnt[c.curRank+1]++
			}
			slot = c.dstSlots[e]
			break
		}
		if slot < 0 {
			if c.err == nil {
				c.err = fmt.Errorf("plan: %v on node %d depends on %v of node %d, which does not list it as a successor",
					c.task[c.cur], c.curRank, dt, c.nodeOf[q])
			}
			return
		}
		c.waitSlot, c.waitTask = append(c.waitSlot, slot), append(c.waitTask, c.cur)
	}
	c.depSlot = append(c.depSlot, slot)
}

// onInput resolves one input tile of the current task to a reference: the
// version read is the latest one a dependency writes (the initial contents
// when none does), held in the node's own buffer when the tile is local and
// in the producer's slot otherwise.
func (c *compiler) onInput(i, j int) {
	if c.err != nil {
		return
	}
	tile := int32(-1)
	if i >= 0 && j >= 0 && i < c.rows && j < c.cols {
		tile = c.grid[i*c.cols+j] - 1
	}
	deps := c.deps[c.depStart:]
	best := -1
	if tile >= 0 {
		for k, q := range deps {
			if c.out[q] == tile && (best < 0 || c.ver[q] > c.ver[deps[best]]) {
				best = k
			}
		}
	}
	t, rank := c.task[c.cur], c.curRank
	local := tile >= c.tileOff[rank] && tile < c.tileOff[rank+1]
	switch {
	case best < 0 && !local && (tile >= 0 || c.d.Owner(i, j) != rank):
		c.err = fmt.Errorf("plan: %v on node %d reads the initial contents of "+
			"remote tile (%d, %d): the protocol only delivers tiles produced by tasks", t, rank, i, j)
	case tile < 0:
		c.err = fmt.Errorf("plan: %v on node %d reads tile (%d, %d), which no task writes: no node holds it",
			t, rank, i, j)
	case !local:
		c.readers[c.depSlot[best]]++
		c.ins = append(c.ins, ^c.depSlot[best])
	default:
		c.ins = append(c.ins, tile)
		if best >= 0 {
			if v := c.ver[deps[best]]; v+1 < c.wrOff[tile+1]-c.wrOff[tile] {
				c.reads = append(c.reads, localRead{c.cur, tile, v})
			}
		}
	}
}

// onSucc records one successor of the current task: released directly when
// it runs on the same node, otherwise its owner joins the task's destination
// list on first visit (the slot there is filled in when that node's task is
// compiled).
func (c *compiler) onSucc(st dag.Task) {
	q := c.posOf[c.g.ID(st)]
	if q >= c.lo && q < c.hi {
		c.succs = append(c.succs, q)
	} else if o := c.nodeOf[q]; c.stamp[o] != c.curVisit+1 {
		c.stamp[o] = c.curVisit + 1
		c.dstRanks, c.dstSlots = append(c.dstRanks, int(o)), append(c.dstSlots, -1)
	}
}

// finish blocks the slots by consumer rank, puts every table in plan order,
// and checks the local intermediate-version reads.
func (c *compiler) finish() error {
	prefixSum(c.slotCnt)
	c.slotOff = c.slotCnt
	slotOf := func(created int32) int32 { return c.slotOff[c.slotNode[created]] + c.slotIdx[created] }
	slots := len(c.prods)
	c.slotProd, c.slotReaders = make([]int32, slots), make([]int32, slots)
	for k := range c.prods {
		c.slotProd[slotOf(int32(k))], c.slotReaders[slotOf(int32(k))] = c.prods[k], c.readers[k]
	}
	for e, s := range c.dstSlots {
		if s >= 0 {
			c.dstSlots[e] = slotOf(s)
		}
	}
	for k, ref := range c.ins {
		if ref < 0 {
			c.ins[k] = ^slotOf(^ref)
		}
	}
	c.waitOff = make([]int32, slots+1)
	for k, s := range c.waitSlot {
		c.waitSlot[k] = slotOf(s)
		c.waitOff[c.waitSlot[k]+1]++
	}
	prefixSum(c.waitOff)
	c.wait = make([]int32, len(c.waitTask))
	fill := append([]int32(nil), c.waitOff[:slots]...)
	for k, s := range c.waitSlot {
		c.wait[fill[s]] = c.waitTask[k]
		fill[s]++
	}

	for _, cnt := range [][]int32{c.depCnt, c.inCnt, c.succCnt, c.dstCnt} {
		prefixSum(cnt)
	}
	c.depOff, c.dep = c.depCnt, regroup(c.depCnt, c.deps, c.seq)
	c.inOff, c.in = c.inCnt, regroup(c.inCnt, c.ins, c.seq)
	c.succOff, c.succ = c.succCnt, regroup(c.succCnt, c.succs, c.seq)
	c.dstOff = c.dstCnt
	c.dstRank, c.dstSlot = regroup(c.dstCnt, c.dstRanks, c.seq), regroup(c.dstCnt, c.dstSlots, c.seq)

	// A local read of an intermediate version: the next writer must be
	// ordered after the reader or the in-place update races the read.
	for _, r := range c.reads {
		next := c.writer[c.wrOff[r.tile]+r.ver+1]
		ordered := false
		for _, q := range c.Deps(next) {
			ordered = ordered || q == r.reader
		}
		if !ordered {
			i, j := c.TileCoords(r.tile)
			return fmt.Errorf("plan: %v reads local tile (%d, %d) at version %d "+
				"but the next writer %v is not ordered after it", c.task[r.reader], i, j, r.ver, c.task[next])
		}
	}
	return nil
}

// prefixSum turns per-bucket counts stored at off[k+1] into CSR offsets.
func prefixSum(off []int32) {
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
}

// regroup returns the entries of one per-task table, appended in visit
// order, in plan order: off are the table's CSR offsets by plan task.
func regroup[T any](off []int32, data []T, seq []visit) []T {
	out := make([]T, len(data))
	rd := int32(0)
	for v := range seq {
		t := seq[v].pos
		n := off[t+1] - off[t]
		copy(out[off[t]:], data[rd:rd+n])
		rd += n
	}
	return out
}
