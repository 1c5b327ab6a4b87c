package dag

import (
	"fmt"
	"slices"
)

// Inference is the one dependency rule of this package at work on a Program,
// as a sequential-task-flow runtime applies it at submission: a task depends
// on the last task submitted before it that wrote each tile it reads, then on
// the last one that wrote the tile it writes. Successors are the inverse
// relation, each task's consumers listed in submission order — the order that
// fixes a broadcast's destination list, hence the shape of its tree.
//
// Only read-after-write and write-after-write orderings are inferred. A task
// that overwrites a tile an earlier task still reads gets no edge from that
// reader: the tile algorithms here only ever read a tile's final version, and
// plan.Compile rejects a graph where that does not hold. A tile listed more
// than once among a task's inputs, or listed there although it is the output
// tile, yields one edge, not two: every consumer counts one release per edge.
//
// Next infers one iteration of the program; a task is named by its position,
// its index in submission order. A task is settled, its successors listed,
// once every iteration that may read it has been inferred. A consumer marks
// the settled tasks before a position done (DoneBefore) when it has no more
// use for them, and the inference forgets a done task once no iteration still
// to come may read it. plan.Compile and the simulator's producer both mark
// settled tasks done, in submission order, once they have read what they need
// of them, so each holds a window of a few iterations of a program that
// states them.
type Inference struct {
	p     Program
	owner func(i, j int) int
	iters int   // iterations the program states; 1 when it states none
	next  int   // the next iteration to infer
	start int32 // the first task of the newest iteration inferred
	// settled is Settled: the first task of the iteration before the newest,
	// which the iteration being inferred may read from on, or the end.
	settled int32
	err     error

	// last is the last writer of each tile, by position + 1 (0: none yet), in
	// a rows×cols grid that grows with the tiles the program writes.
	last       []int32
	rows, cols int

	// The tasks [base, end), their predecessors [pbase, pend) and the
	// successors of the settled ones [sbase, send). Every task before low is
	// done.
	nodes       ring[node]
	preds       ring[int32]
	succs       ring[succ]
	base, end   int32
	pbase, pend int32
	sbase, send int32
	low         int32
	// back holds the dependencies of the iteration being inferred on the one
	// before it, until that one settles; count is settle's, by producer.
	back  []edge
	count []int32

	// Route's scratch: a node's index in Dsts (-1 outside a walk), and the
	// remote successors met, a destination index in place of the owner.
	dstOf  []int32
	remote []succ

	submit func(Task)     // w.add, bound once: a method value allocates
	depend func(i, j int) // w.dependOn, likewise
}

// node is one task in the window, 28 bytes: its owner, where its
// predecessors start (the next task's start ends the list), and until it is
// settled how many successors it has so far, then where they start
// (likewise).
type node struct {
	t                 Task
	owner, pred, succ int32
}

// succ is one successor of a settled task, with its owner.
type succ struct{ pos, owner int32 }

// edge is one dependency waiting for its producer to settle.
type edge struct{ src, dst, owner int32 }

// ring is one store of an Inference: entry k lives at k modulo the length of
// a power-of-two buffer, which doubles, keeping the live entries, when the
// live window outgrows it — so memory follows the widest window, not the
// graph.
type ring[T any] struct{ buf []T }

func (r *ring[T]) at(k int32) *T { return &r.buf[int(k)&(len(r.buf)-1)] }

// open makes entry k storable, the entries [lo, k) being live.
func (r *ring[T]) open(lo, k int32) {
	if int(k-lo) < len(r.buf) {
		return
	}
	n := max(1024, len(r.buf))
	for n <= int(k-lo) {
		n *= 2
	}
	buf := make([]T, n)
	for q := lo; q < min(k, lo+int32(len(r.buf))); q++ {
		buf[int(q)&(n-1)] = *r.at(q)
	}
	r.buf = buf
}

// Infer starts the inference of p. owner places each task by its output tile
// (owner-computes); nil places every task on node 0.
func Infer(p Program, owner func(i, j int) int) *Inference {
	w := &Inference{p: p, owner: owner, iters: max(p.Iterations, 1)}
	w.rows, w.cols = max(p.Tiles, 1), max(p.Tiles, 1)
	w.last = make([]int32, w.rows*w.cols)
	w.submit, w.depend = w.add, w.dependOn
	return w
}

// Next infers the next iteration and reports whether there was one; it
// returns false at the end of the program and on an error (Err).
func (w *Inference) Next() bool {
	if w.err != nil || w.next == w.iters {
		return false
	}
	w.start = w.end
	w.p.Tasks(w.next, w.submit)
	w.next++
	w.forget()
	if w.err != nil {
		return false
	}
	// The iteration before the new one settles, and the new one too when it
	// is the last.
	w.settle(w.start)
	if w.next == w.iters {
		w.settle(w.end)
	}
	return true
}

// Err returns the statement the program broke, if it broke its own.
func (w *Inference) Err() error { return w.err }

// End returns the number of tasks inferred so far.
func (w *Inference) End() int32 { return w.end }

// Settled returns the number of leading tasks whose successors are all
// inferred and listed.
func (w *Inference) Settled() int32 { return w.settled }

// Live returns the number of tasks the inference holds.
func (w *Inference) Live() int { return int(w.end - w.base) }

func (w *Inference) node(pos int32) *node { return w.nodes.at(pos) }

// Task returns the task at pos.
func (w *Inference) Task(pos int32) Task { return w.node(pos).t }

// At returns the task at pos, the node it is placed on and its number of
// predecessors, in one lookup.
func (w *Inference) At(pos int32) (t Task, owner, preds int32) {
	lo, hi := w.predRange(pos)
	n := w.node(pos)
	return n.t, n.owner, hi - lo
}

// predRange returns the range of the predecessors of the task at pos.
func (w *Inference) predRange(pos int32) (lo, hi int32) {
	lo, hi = w.node(pos).pred, w.pend
	if pos+1 < w.end {
		hi = w.node(pos + 1).pred
	}
	return lo, hi
}

// NumPreds returns the number of predecessors of the task at pos.
func (w *Inference) NumPreds(pos int32) int {
	lo, hi := w.predRange(pos)
	return int(hi - lo)
}

// Preds visits the predecessors of the task at pos: the last writers of its
// input tiles in InputTiles order, then the previous writer of its output
// tile.
func (w *Inference) Preds(pos int32, visit func(q int32)) {
	lo, hi := w.predRange(pos)
	for e := lo; e < hi; e++ {
		visit(*w.preds.at(e))
	}
}

// succRange returns the range of the successors of the settled task at pos.
func (w *Inference) succRange(pos int32) (lo, hi int32) {
	lo, hi = w.node(pos).succ, w.send
	if pos+1 < w.settled {
		hi = w.node(pos + 1).succ
	}
	return lo, hi
}

// NumSuccs returns the number of successors of the settled tasks [lo, hi),
// whose lists lie end to end.
func (w *Inference) NumSuccs(lo, hi int32) int {
	start, _ := w.succRange(lo)
	_, end := w.succRange(hi - 1)
	return int(end - start)
}

// Succs visits the successors of the task at pos, which must be settled
// (pos < Settled()), in submission order.
func (w *Inference) Succs(pos int32, visit func(q int32)) {
	lo, hi := w.succRange(pos)
	for k := lo; k < hi; k++ {
		visit(w.succs.at(k).pos)
	}
}

// Route is where the output of a settled task goes under the owner-computes
// rule. A caller keeps one and hands it to every Inference.Route call.
type Route struct {
	Local []int32 // the successors on the producer's node, in submission order
	// Dsts are the distinct remote owners in first-visit order, one message
	// each: the broadcast's destination list, which fixes the tree's shape.
	Dsts []int
	// Reduce: the output ships as a reduction partial
	// (Program.ReducePartial with exactly one destination).
	Reduce           bool
	waitOff, waiters []int32 // Dsts[k] owns waiters[waitOff[k]:waitOff[k+1]]
}

// Waiters returns the successors destination k owns, in submission order.
func (r *Route) Waiters(k int) []int32 { return r.waiters[r.waitOff[k]:r.waitOff[k+1]] }

// Route fills r with the route of the settled task at pos in one walk over
// its successors: the one place a task's consumers are split by owner.
func (w *Inference) Route(pos int32, r *Route) {
	src := w.node(pos).owner
	r.Local, r.Dsts, r.waitOff = r.Local[:0], r.Dsts[:0], r.waitOff[:0]
	remote := w.remote[:0]
	lo, hi := w.succRange(pos)
	for e := lo; e < hi; e++ {
		s := *w.succs.at(e)
		if s.owner == src {
			r.Local = append(r.Local, s.pos)
			continue
		}
		for int(s.owner) >= len(w.dstOf) {
			w.dstOf = append(w.dstOf, -1)
		}
		if w.dstOf[s.owner] < 0 {
			w.dstOf[s.owner] = int32(len(r.Dsts))
			r.Dsts, r.waitOff = append(r.Dsts, int(s.owner)), append(r.waitOff, 0)
		}
		k := w.dstOf[s.owner]
		r.waitOff[k]++
		remote = append(remote, succ{s.pos, k})
	}
	// The waiters: a counting sort by destination, filled backwards, keeps
	// each list in submission order. Counts become ends, and ends starts.
	end := int32(0)
	for k, dst := range r.Dsts {
		w.dstOf[dst] = -1
		end += r.waitOff[k]
		r.waitOff[k] = end
	}
	r.waitOff = append(r.waitOff, end)
	r.waiters = slices.Grow(r.waiters[:0], len(remote))[:len(remote)]
	for i := len(remote) - 1; i >= 0; i-- {
		k := remote[i].owner
		r.waitOff[k]--
		r.waiters[r.waitOff[k]] = remote[i].pos
	}
	w.remote = remote
	r.Reduce = len(r.Dsts) == 1 && w.p.ReducePartial != nil && w.p.ReducePartial(w.node(pos).t)
}

// DoneBefore marks every task before pos, which must be settled, as one the
// consumer has no more use for.
func (w *Inference) DoneBefore(pos int32) {
	w.low = max(w.low, pos)
	w.forget()
}

// forget drops the tasks before low that no iteration still to come may read,
// with their predecessors and successors.
func (w *Inference) forget() {
	base := w.low
	if w.next < w.iters {
		base = min(base, w.start)
	}
	if base <= w.base {
		return
	}
	w.base, w.pbase, w.sbase = base, w.pend, w.send
	if base < w.end {
		w.pbase = w.node(base).pred
	}
	if base < w.settled {
		w.sbase = w.node(base).succ
	}
}

// settle lists the successors of the tasks [settled, hi), one iteration
// whose consumers have all been inferred: a counting sort, by producer, of
// the dependencies of its own tasks on it, then of those in back, which keeps
// each list in submission order.
func (w *Inference) settle(hi int32) {
	lo := w.settled
	if lo == hi {
		return
	}
	count, at := w.count[:0], w.send
	for p := lo; p < hi; p++ {
		n := w.node(p)
		count = append(count, at)
		n.succ, at = at, at+n.succ
	}
	w.count = count
	if at > w.send {
		w.succs.open(w.sbase, at-1)
	}
	for c, e := lo, w.node(lo).pred; c < hi; c++ {
		_, end := w.predRange(c)
		for owner := w.node(c).owner; e < end; e++ {
			if q := *w.preds.at(e) - lo; q >= 0 {
				*w.succs.at(count[q]) = succ{c, owner}
				count[q]++
			}
		}
	}
	for _, e := range w.back {
		*w.succs.at(count[e.src-lo]) = succ{e.dst, e.owner}
		count[e.src-lo]++
	}
	w.back = w.back[:0]
	w.send, w.settled = at, hi
}

// add infers one submitted task.
func (w *Inference) add(t Task) {
	if w.err != nil {
		return
	}
	oi, oj := w.p.OutputTile(t)
	owner := 0
	if w.owner != nil {
		owner = w.owner(oi, oj)
	}
	w.nodes.open(w.base, w.end)
	// Field by field: a composite literal is built on the stack and copied,
	// and that copy stalls on store forwarding.
	n := w.node(w.end)
	n.t, n.owner, n.pred, n.succ = t, int32(owner), w.pend, 0
	w.p.InputTiles(t, w.depend)
	w.dependOn(oi, oj)
	if w.pend == n.pred && w.next > 0 && w.err == nil {
		w.err = fmt.Errorf("dag: %s states iterations, but %v of iteration %d depends on no earlier task",
			w.p.Name, t, w.next)
	}
	if oi >= w.rows || oj >= w.cols {
		w.growTiles(oi+1, oj+1)
	}
	w.last[oi*w.cols+oj] = w.end + 1
	w.end++
}

// dependOn adds the edge from the last writer of tile (i, j), if any, to the
// task being inferred, at position end.
func (w *Inference) dependOn(i, j int) {
	if i < 0 || j < 0 || i >= w.rows || j >= w.cols || w.err != nil {
		return
	}
	q := w.last[i*w.cols+j] - 1
	if q < 0 {
		return
	}
	if q < w.settled {
		w.err = fmt.Errorf("dag: %s states that an output is read only in its own iteration and the next, "+
			"but %v of iteration %d uses tile (%d, %d), last written before iteration %d",
			w.p.Name, w.node(w.end).t, w.next, i, j, w.next-1)
		return
	}
	for e := w.node(w.end).pred; e < w.pend; e++ {
		if *w.preds.at(e) == q {
			return
		}
	}
	w.preds.open(w.pbase, w.pend)
	*w.preds.at(w.pend) = q
	w.pend++
	w.node(q).succ++
	if q < w.start {
		w.back = append(w.back, edge{q, w.end, w.node(w.end).owner})
	}
}

// growTiles widens the last-writer grid to at least rows×cols, doubling the
// dimension that grows.
func (w *Inference) growTiles(rows, cols int) {
	if rows > w.rows {
		rows = max(rows, 2*w.rows)
	}
	if cols > w.cols {
		cols = max(cols, 2*w.cols)
	}
	rows, cols = max(rows, w.rows), max(cols, w.cols)
	last := make([]int32, rows*cols)
	for i := 0; i < w.rows; i++ {
		copy(last[i*cols:], w.last[i*w.cols:(i+1)*w.cols])
	}
	w.last, w.rows, w.cols = last, rows, cols
}
