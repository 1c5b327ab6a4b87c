// Package sched is the one scheduling policy of the discrete-event simulator
// (internal/simulate) and the real distributed runtime (internal/runtime): a
// per-task priority key that favors the critical path of the right-looking
// factorizations, and the per-node ready queue both substrates pop it from —
// least key first, the most recently pushed of equal keys first.
//
// The paper's evaluation depends on the simulator predicting what the
// Chameleon/StarPU-style runtime does; keeping both halves on one policy is
// what makes the prediction honest, and the runtime's
// TestSimulatorMatchesRuntime holds the simulator's makespan to the runtime's
// own, run in virtual time on the same graph. The policy itself is the
// critical-path-first heuristic dynamic runtimes converge to (Donfack et al.,
// hybrid static/dynamic scheduling; Kwasniewski et al., arXiv:2010.05975):
// lower iterations first, and within an iteration the panel factorization
// (GETRF/POTRF) before the triangular solves (TRSM) before the trailing
// updates (SYRK, GEMM) — a delayed panel serializes the whole next iteration,
// while a delayed GEMM only delays itself.
package sched

import (
	"slices"

	"anybc/internal/dag"
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

// Key returns the critical-path dispatch key of t: lower keys dispatch first.
// Keys are totally ordered by (iteration, kind rank, urgency); remaining
// ties are left to the ready queue's deterministic tie-break.
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

// Tie names a Heap's order among equal keys. TieLIFO is the only one: a
// queue pops the most recently pushed of equal keys first.
type Tie int

// TieLIFO is the cache-affinity order of StarPU/Chameleon-style local task
// stacks: the trailing update released last reads the tile a worker just
// wrote, so popping it first keeps the operand hot. The key still dictates
// cross-class order; recency only breaks ties among same-iteration same-kind
// updates.
const TieLIFO Tie = 0

// Heap is a deterministic priority queue of task identifiers: the least key
// pops first, and equal keys pop most recently pushed first. The order is
// total, so a run's dispatch sequence is reproducible. The zero value is an
// empty queue.
//
// A ready set holds many ids under few keys, so it is a bucket per distinct
// key: buckets is sorted by descending key, the least last, and each bucket's
// ids are a stack threaded through links. A pop takes the head of the last
// bucket; a push binary-searches its key. Popped links go on a free list
// (every link past the n live ones is free), so a warm queue allocates
// nothing.
type Heap struct {
	buckets []bucket
	links   []link
	free    int32 // first free link, when len(links) > n
	n       int
}

// bucket is the stack of the ids queued under one key: pushed at head,
// popped from head, tail its oldest id.
type bucket struct {
	key        int64
	head, tail int32
}

// link holds one id and, in a list or on the free list, the next link.
type link struct{ id, next int32 }

// NewHeap returns an empty queue with room for a few keys and ids. Its
// argument can only be TieLIFO, the one tie order.
func NewHeap(Tie) Heap {
	return Heap{buckets: make([]bucket, 0, 8), links: make([]link, 0, 32)}
}

// Push inserts id with the given priority key.
func (h *Heap) Push(key int64, id int32) {
	l := int32(len(h.links))
	if int(l) > h.n {
		l, h.free = h.free, h.links[h.free].next
		h.links[l].id = id
	} else {
		h.links = append(h.links, link{id: id})
	}
	h.n++
	lo, hi := 0, len(h.buckets) // find the first bucket whose key is <= key
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); h.buckets[m].key > key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(h.buckets) || h.buckets[lo].key != key {
		h.buckets = slices.Insert(h.buckets, lo, bucket{key, l, l})
		return
	}
	b := &h.buckets[lo]
	h.links[l].next, b.head = b.head, l
}

// Pop removes and returns the id with the lowest key, the most recently
// pushed of several. It must not be called on an empty queue.
func (h *Heap) Pop() int32 {
	last := len(h.buckets) - 1
	b := &h.buckets[last]
	l := b.head
	if l == b.tail {
		h.buckets = h.buckets[:last]
	} else {
		b.head = h.links[l].next
	}
	h.n--
	h.links[l].next, h.free = h.free, l
	return h.links[l].id
}

// Len returns the number of queued ids.
func (h *Heap) Len() int { return h.n }

// Empty reports whether the queue holds no ids.
func (h *Heap) Empty() bool { return h.n == 0 }
