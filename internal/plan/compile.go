package plan

import (
	"fmt"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/sched"
)

// compiler is the state of one Compile call. Its two visitor methods are
// handed to the inference and the program once, as method values, and read
// the task the main pass is at from the cur* fields — a closure per task would
// cost heap allocations per task, which is what compiling once is meant to
// end.
type compiler struct {
	*Plan
	g   dag.Graph
	err error

	posOf  []int32 // plan index by program position
	nodeOf []int32 // owner rank by plan index
	next   []int32 // per tile, where its next writer goes in writer
	route  dag.Route

	// The four per-task tables are appended in program order, their per-task
	// entry counts stored at cnt[task+1]; finish regroups the last three in
	// plan order. The plan keeps only the dependencies' count; finish's
	// ordering check reads them in program order.
	depCnt, inCnt, succCnt, dstCnt []int32
	deps, ins, succs               []int32
	dstRanks                       []int
	depAt, dstAt                   []int32 // where a task's dependencies start in deps, its destinations in dstRanks
	// Each destination entry is a slot on its rank (finish blocks them by
	// rank), numbered here by its index in dstRanks: the tasks there waiting
	// on the version, one run of waiters per entry.
	waitCnt, waiters []int32

	// Local reads of an intermediate version, checked once every writer is
	// known.
	reads []localRead

	// The task the main pass is at.
	cur, curTile      int32
	curRank, depStart int
	depSlot           []int32 // entry of each dependency of cur, -1 for local ones
}

type localRead struct{ reader, tile, ver int32 }

// Compile builds the plan of graph g under distribution d. One run of the
// graph's program lays the tasks out; then each task is compiled from the
// program's inference (dag.Infer) once it is settled — its predecessors and
// successors read once, its InputTiles called once more — and the inference
// forgets it, holding a few iterations. It fails with a descriptive error —
// instead of letting a node panic or hang deep inside its event loop — when:
//
//   - the program breaks the iteration statement it makes (dag.Infer);
//   - a tile used by the graph is mapped outside [0, P);
//   - a task reads the initial contents of a tile owned by another node: the
//     protocol only moves tiles on task completion, so initial contents never
//     cross the network;
//   - a task reads a tile owned by another node at any version but its last:
//     the protocol sends a tile once its last writer ran, so an earlier
//     version never crosses the network either;
//   - a task reads a local tile at an intermediate version without ordering
//     itself before the tile's next writer, so the in-place update could
//     overwrite the tile while it is being read;
//   - a task reads a tile no task writes: no node materializes it.
func Compile(g dag.Graph, d dist.Distribution) (*Plan, error) {
	c := &compiler{Plan: &Plan{d: d}, g: g}
	if err := c.layout(); err != nil {
		return nil, err
	}
	n := int32(len(c.posOf))
	c.key, c.ver = make([]int64, n), make([]int32, n)
	c.depCnt, c.inCnt = make([]int32, n+1), make([]int32, n+1)
	c.succCnt, c.dstCnt = make([]int32, n+1), make([]int32, n+1)
	c.deps, c.ins, c.succs = make([]int32, 0, 3*n), make([]int32, 0, 2*n), make([]int32, 0, 2*n)
	c.depAt, c.dstAt = make([]int32, n), make([]int32, n)
	prog := g.Program()
	w := dag.Infer(prog, d.Owner) // layout has checked every owner's range
	onDep, onInput := c.onDep, c.onInput
	for v := int32(0); w.Next(); {
		for ; v < w.Settled(); v++ {
			t := w.Task(v)
			c.cur = c.posOf[v]
			c.task[c.cur] = t
			c.curRank, c.curTile = int(c.nodeOf[c.cur]), c.out[c.cur]

			// The inference orders every writer of a tile after the one
			// before it, so the writers come here in version order.
			c.ver[c.cur] = c.next[c.curTile] - c.wrOff[c.curTile]
			c.writer[c.next[c.curTile]] = c.cur
			c.next[c.curTile]++

			c.depStart, c.depSlot = len(c.deps), c.depSlot[:0]
			c.depAt[c.cur] = int32(c.depStart)
			w.Preds(v, onDep)
			c.depCnt[c.cur+1] = int32(len(c.deps) - c.depStart)

			inStart := len(c.ins)
			prog.InputTiles(t, onInput)
			c.inCnt[c.cur+1] = int32(len(c.ins) - inStart)
			if c.err != nil {
				return nil, c.err
			}

			// Routing: the same-node successors, released directly, and
			// the destination ranks, each a slot with the tasks waiting there.
			r := &c.route
			w.Route(v, r)
			for _, q := range r.Local {
				c.succs = append(c.succs, c.posOf[q])
			}
			c.succCnt[c.cur+1] = int32(len(r.Local))
			c.dstAt[c.cur] = int32(len(c.dstRanks))
			c.dstCnt[c.cur+1] = int32(len(r.Dsts))
			for k, dst := range r.Dsts {
				c.dstRanks = append(c.dstRanks, dst)
				waiters := r.Waiters(k)
				for _, q := range waiters {
					c.waiters = append(c.waiters, c.posOf[q])
				}
				c.waitCnt = append(c.waitCnt, int32(len(waiters)))
			}

			c.key[c.cur] = sched.Key(t)
			w.DoneBefore(v + 1)
		}
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c.Plan, nil
}

// layout runs the program once to check every task's owner, assigns plan
// positions (tasks blocked by owner) and tiles (blocked by owner in
// first-write order), and sizes each tile's writer list.
func (c *compiler) layout() error {
	type placed struct{ owner, i, j int32 }
	var tasks []placed // by program position
	var err error
	P := c.d.Nodes()
	c.nodeOff = make([]int32, P+1)
	dag.ForEachTask(c.g, func(t dag.Task) {
		oi, oj := c.g.OutputTile(t)
		o := c.d.Owner(oi, oj)
		if o < 0 || o >= P {
			if err == nil {
				err = fmt.Errorf("plan: %s maps tile (%d, %d) to node %d, outside 0..%d",
					c.d.Name(), oi, oj, o, P-1)
			}
			return
		}
		c.nodeOff[o+1]++
		c.rows, c.cols = max(c.rows, oi+1), max(c.cols, oj+1)
		tasks = append(tasks, placed{int32(o), int32(oi), int32(oj)})
	})
	if err != nil {
		return err
	}
	prefixSum(c.nodeOff)
	n := len(tasks)
	c.task = make([]dag.Task, n)
	c.out = make([]int32, n)
	c.posOf = make([]int32, n)
	c.nodeOf = make([]int32, n)
	c.grid = make([]int32, c.rows*c.cols)
	c.tileOff = make([]int32, P+1)
	next := append([]int32(nil), c.nodeOff[:P]...)
	for v, tk := range tasks {
		pos := next[tk.owner]
		next[tk.owner]++
		c.posOf[v], c.nodeOf[pos] = pos, tk.owner
		c.out[pos] = tk.i*int32(c.cols) + tk.j // the grid cell, numbered below
		if cell := &c.grid[c.out[pos]]; *cell == 0 {
			*cell = -1 // first write seen
			c.tileOff[tk.owner+1]++
		}
	}
	prefixSum(c.tileOff)
	tiles := int(c.tileOff[P])
	c.tileI, c.tileJ = make([]int32, tiles), make([]int32, tiles)
	c.wrOff = make([]int32, tiles+1)
	copy(next, c.tileOff[:P])
	for _, pos := range c.posOf {
		own, at := c.nodeOf[pos], c.out[pos]
		cell := &c.grid[at]
		if *cell < 0 {
			tile := next[own]
			next[own]++
			c.tileI[tile], c.tileJ[tile] = at/int32(c.cols), at%int32(c.cols)
			*cell = tile + 1
		}
		c.out[pos] = *cell - 1
		c.wrOff[*cell]++
	}
	prefixSum(c.wrOff)
	c.writer = make([]int32, n)
	c.next = append([]int32(nil), c.wrOff[:tiles]...)
	return nil
}

// onDep records one predecessor, at program position q, of the current task:
// for a remote one, the slot on the current node its input references read —
// the entry of the producer's destination list naming the current node,
// which the list holds since the predecessor lists the current task among
// its successors.
func (c *compiler) onDep(q int32) {
	q = c.posOf[q]
	c.deps = append(c.deps, q)
	e := int32(-1)
	if int(c.nodeOf[q]) != c.curRank {
		for e = c.dstAt[q]; c.dstRanks[e] != c.curRank; e++ {
		}
	}
	c.depSlot = append(c.depSlot, e)
}

// onInput resolves one input tile of the current task to a reference: the
// version read is the one its last writer, a dependency, produced (the initial
// contents when no task wrote it before), held in the node's own buffer when
// the tile is local and in the producer's slot otherwise.
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
	for k, q := range deps {
		if tile >= 0 && c.out[q] == tile {
			best = k
			break
		}
	}
	t, rank := c.task[c.cur], c.curRank
	local := tile >= c.tileOff[rank] && tile < c.tileOff[rank+1]
	v := int32(-1) // the initial contents
	if best >= 0 {
		v = c.ver[deps[best]]
	}
	earlier := tile >= 0 && v+1 < c.wrOff[tile+1]-c.wrOff[tile] // a later task writes the tile
	switch {
	case best < 0 && !local && (tile >= 0 || c.d.Owner(i, j) != rank):
		c.err = fmt.Errorf("plan: %v on node %d reads the initial contents of "+
			"remote tile (%d, %d): the protocol only delivers tiles produced by tasks", t, rank, i, j)
	case tile < 0:
		c.err = fmt.Errorf("plan: %v on node %d reads tile (%d, %d), which no task writes: no node holds it",
			t, rank, i, j)
	case !local && earlier:
		c.err = fmt.Errorf("plan: %v on node %d reads remote tile (%d, %d) at version %d, not its last: "+
			"the protocol only delivers a tile's last version", t, rank, i, j, v)
	case !local:
		c.ins = append(c.ins, ^c.depSlot[best])
	default:
		c.ins = append(c.ins, tile)
		if best >= 0 && earlier {
			c.reads = append(c.reads, localRead{c.cur, tile, v})
		}
	}
}

// finish blocks the slots by consumer rank, in producer order, puts every
// table in plan order, and checks the local intermediate-version reads.
func (c *compiler) finish() error {
	slots := len(c.dstRanks)
	c.slotOff = make([]int32, c.Nodes()+1)
	for _, rank := range c.dstRanks {
		c.slotOff[rank+1]++
	}
	prefixSum(c.slotOff)
	slotOf := make([]int32, slots) // by destination entry
	fill := append([]int32(nil), c.slotOff[:c.Nodes()]...)
	c.slotReaders = make([]int32, slots)
	c.waitOff = make([]int32, slots+1)
	for e, rank := range c.dstRanks {
		s := fill[rank]
		fill[rank]++
		slotOf[e], c.waitOff[s+1] = s, c.waitCnt[e]
	}
	prefixSum(c.waitOff)
	c.wait = regroup(c.waitOff, c.waiters, slotOf) // appended by entry, wanted by slot
	for k, ref := range c.ins {
		if ref < 0 {
			c.ins[k] = ^slotOf[^ref]
			c.slotReaders[slotOf[^ref]]++
		}
	}

	for _, cnt := range [][]int32{c.inCnt, c.succCnt, c.dstCnt} {
		prefixSum(cnt)
	}
	c.numDeps = c.depCnt[1:]
	c.inOff, c.in = c.inCnt, regroup(c.inCnt, c.ins, c.posOf)
	for t := range len(c.inOff) - 1 {
		c.maxIn = max(c.maxIn, int(c.inOff[t+1]-c.inOff[t]))
	}
	c.succOff, c.succ = c.succCnt, regroup(c.succCnt, c.succs, c.posOf)
	c.dstOff = c.dstCnt
	c.dstRank, c.dstSlot = regroup(c.dstCnt, c.dstRanks, c.posOf), regroup(c.dstCnt, slotOf, c.posOf)

	// A local read of an intermediate version: the next writer must be
	// ordered after the reader or the in-place update races the read.
	for _, r := range c.reads {
		next := c.writer[c.wrOff[r.tile]+r.ver+1]
		ordered := false
		for _, q := range c.deps[c.depAt[next]:][:c.numDeps[next]] {
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

// regroup returns the entries of one per-task table, appended in program
// order, in plan order: off are the table's CSR offsets by plan task, posOf
// the plan task at each program position.
func regroup[T any](off []int32, data []T, posOf []int32) []T {
	out := make([]T, len(data))
	rd := int32(0)
	for _, t := range posOf {
		n := off[t+1] - off[t]
		copy(out[off[t]:], data[rd:rd+n])
		rd += n
	}
	return out
}
