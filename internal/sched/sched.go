// Package sched is the single scheduling policy shared by the discrete-event
// simulator (internal/simulate) and the real distributed runtime
// (internal/runtime): a per-task priority key that favors the critical path
// of the right-looking factorizations, and a deterministic priority heap for
// per-node ready queues.
//
// The paper's evaluation depends on the simulator predicting what the
// Chameleon/StarPU-style runtime does; keeping both halves on one policy is
// what makes the prediction honest. The policy itself is the
// critical-path-first heuristic dynamic runtimes converge to (Donfack et al.,
// hybrid static/dynamic scheduling; Kwasniewski et al., arXiv:2010.05975):
// lower iterations first, and within an iteration the panel factorization
// (GETRF/POTRF) before the triangular solves (TRSM) before the trailing
// updates (SYRK, GEMM) — a delayed panel serializes the whole next iteration,
// while a delayed GEMM only delays itself.
package sched

import "anybc/internal/dag"

// Policy selects how ready tasks are ordered.
type Policy int

const (
	// CriticalPath orders by iteration, then panel < TRSM < SYRK < update —
	// the lookahead-friendly policy both substrates use by default.
	CriticalPath Policy = iota
	// FIFO dispatches ready tasks in release order (all keys equal; the
	// heap's insertion-order tie-break makes it a plain queue).
	FIFO
)

// kindOrder ranks task kinds within one iteration: the diagonal panel
// factorization unblocks everything, the solves unblock the updates, and the
// updates only feed the next iteration.
func kindOrder(k dag.Kind) int64 {
	switch k {
	case dag.GETRF, dag.POTRF:
		return 0
	case dag.TRSMCol, dag.TRSMRow, dag.TRSMChol, dag.ReduceAdd:
		// A replicated run's reduction combines gate the panel kernels of
		// their tile's iteration exactly like the solves gate the updates.
		return 1
	case dag.SYRK:
		return 2
	default:
		return 3
	}
}

// subOrder refines the order within one (iteration, kind) class by urgency:
// the smallest row/column a task touches is the first future iteration its
// output unblocks, so the solve of row ℓ+1 and the update of tile
// (ℓ+1, ℓ+1) — the very operands of iteration ℓ+1's panel — dispatch before
// updates deep in the trailing matrix. This is the lookahead priority
// dynamic runtimes (PaRSEC/DPLASMA-style) give tiled factorizations.
func subOrder(t dag.Task) int64 {
	switch t.Kind {
	case dag.GETRF, dag.POTRF:
		return 0
	case dag.TRSMCol, dag.TRSMRow, dag.TRSMChol, dag.SYRK:
		return int64(t.I)
	default:
		i, j := int64(t.I), int64(t.J)
		if j < i {
			return j
		}
		return i
	}
}

// subBits bounds the sub-priority field; matrices beyond 2^20 tiles per side
// saturate it (the class order still holds).
const subBits = 20

// Key returns the CriticalPath dispatch key of t: lower keys dispatch first.
// Keys are totally ordered by (iteration, kind rank, urgency); remaining
// ties are left to the heap's deterministic tie-break.
func Key(t dag.Task) int64 {
	sub := subOrder(t)
	if sub >= 1<<subBits {
		sub = 1<<subBits - 1
	}
	iter := int64(t.L)
	if t.Kind == dag.ReduceAdd {
		// A combine's L field is its index in the tile's reduction group,
		// not an iteration; the iteration it unblocks is the tile's panel
		// step min(I, J).
		iter = int64(t.I)
		if int64(t.J) < iter {
			iter = int64(t.J)
		}
	}
	return (iter*4+kindOrder(t.Kind))<<subBits | sub
}

// Key returns the dispatch key of t under policy p.
func (p Policy) Key(t dag.Task) int64 {
	if p == FIFO {
		return 0
	}
	return Key(t)
}

// Tie selects how a Heap orders ids whose keys compare equal.
type Tie int

const (
	// TieFIFO pops equal keys in push order — a fair queue, and what makes
	// the FIFO policy (all keys zero) a plain release-order queue.
	TieFIFO Tie = iota
	// TieLIFO pops the most recently pushed of equal keys first. This is the
	// cache-affinity order of StarPU/Chameleon-style local task stacks: the
	// trailing update released last reads the tile a worker just wrote, so
	// popping it first keeps the operand hot. CriticalPath uses it — the key
	// still dictates cross-class order; recency only breaks ties among
	// same-iteration same-kind updates.
	TieLIFO
)

// Tie returns the tie-break mode policy p pairs with.
func (p Policy) Tie() Tie {
	if p == FIFO {
		return TieFIFO
	}
	return TieLIFO
}

// Heap is a deterministic min-heap of task identifiers ordered by (key,
// tie-break on push recency): both orders are total, so a run's dispatch
// sequence is reproducible. The zero value is an empty TieFIFO heap; use
// NewHeap to select the tie-break.
//
// It is binary (a 4-ary heap measured no faster) over one array of entries,
// and both sifts move a hole and write the travelling entry once.
type Heap struct {
	items []entry
	seq   uint64
	flip  uint64 // 0 under TieFIFO, all ones under TieLIFO
}

// entry is one queued id. ord is its push count under TieFIFO and the
// count's complement under TieLIFO, so (key, ord) ascending is the pop order
// of either mode.
type entry struct {
	key int64
	ord uint64
	id  int32
}

func (e *entry) before(o *entry) bool {
	return e.key < o.key || e.key == o.key && e.ord < o.ord
}

// NewHeap returns an empty heap with the given tie-break mode.
func NewHeap(tie Tie) Heap {
	if tie == TieLIFO {
		return Heap{flip: ^uint64(0)}
	}
	return Heap{}
}

// Push inserts id with the given priority key.
func (h *Heap) Push(key int64, id int32) {
	h.seq++
	e := entry{key: key, ord: h.seq ^ h.flip, id: id}
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = e
}

// Pop removes and returns the id with the lowest key (tie broken by the
// heap's Tie mode). It must not be called on an empty heap.
func (h *Heap) Pop() int32 {
	top := h.items[0].id
	n := len(h.items) - 1
	last := h.items[n]
	h.items = h.items[:n]
	items := h.items
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && items[c+1].before(&items[c]) {
			c++
		}
		if !items[c].before(&last) {
			break
		}
		items[i] = items[c]
		i = c
	}
	if n > 0 {
		items[i] = last
	}
	return top
}

// Len returns the number of queued ids.
func (h *Heap) Len() int { return len(h.items) }

// Empty reports whether the heap holds no ids.
func (h *Heap) Empty() bool { return len(h.items) == 0 }
