package sched

import (
	"math/rand"
	"sort"
	"testing"

	"anybc/internal/dag"
)

// TestKeyOrdersCriticalPathFirst: within one iteration panel < TRSM < SYRK <
// GEMM, and any task of iteration ℓ beats any task of iteration ℓ+1.
func TestKeyOrdersCriticalPathFirst(t *testing.T) {
	iter0 := []dag.Task{
		{Kind: dag.GETRF, L: 0},
		{Kind: dag.POTRF, L: 0},
		{Kind: dag.TRSMCol, L: 0, I: 1},
		{Kind: dag.TRSMRow, L: 0, I: 1},
		{Kind: dag.TRSMChol, L: 0, I: 1},
		{Kind: dag.SYRK, L: 0, I: 1},
		{Kind: dag.GEMMLU, L: 0, I: 1, J: 1},
		{Kind: dag.GEMMChol, L: 0, I: 2, J: 1},
	}
	order := func(tk dag.Task) int64 { return (Key(tk) >> subBits) % 4 }
	wants := []int64{0, 0, 1, 1, 1, 2, 3, 3}
	for i, tk := range iter0 {
		if got := order(tk); got != wants[i] {
			t.Errorf("kind rank of %v = %d, want %d", tk, got, wants[i])
		}
	}
	// Iteration dominates kind: the panel of iteration 1 must not preempt
	// even the latest update of iteration 0.
	gemm0 := dag.Task{Kind: dag.GEMMLU, L: 0, I: 3, J: 3}
	getrf1 := dag.Task{Kind: dag.GETRF, L: 1}
	if Key(gemm0) >= Key(getrf1) {
		t.Errorf("Key(%v)=%d should precede Key(%v)=%d", gemm0, Key(gemm0), getrf1, Key(getrf1))
	}
	// Urgency within a class: the update feeding the next panel beats an
	// update deep in the trailing matrix, and the solve of an earlier row
	// beats a later one.
	near := dag.Task{Kind: dag.GEMMLU, L: 0, I: 1, J: 1}
	far := dag.Task{Kind: dag.GEMMLU, L: 0, I: 7, J: 9}
	if Key(near) >= Key(far) {
		t.Errorf("Key(%v)=%d should precede Key(%v)=%d", near, Key(near), far, Key(far))
	}
	t1 := dag.Task{Kind: dag.TRSMCol, L: 0, I: 1}
	t5 := dag.Task{Kind: dag.TRSMCol, L: 0, I: 5}
	if Key(t1) >= Key(t5) {
		t.Errorf("Key(%v)=%d should precede Key(%v)=%d", t1, Key(t1), t5, Key(t5))
	}
	// Kind rank still dominates urgency: the farthest TRSM beats the nearest
	// GEMM of the same iteration.
	if Key(t5) >= Key(near) {
		t.Errorf("Key(%v)=%d should precede Key(%v)=%d", t5, Key(t5), near, Key(near))
	}
}

// TestFIFOKeyIsConstant: under FIFO every task keys to 0 so the heap's
// insertion-order tie-break turns it into a queue.
func TestFIFOKeyIsConstant(t *testing.T) {
	tasks := []dag.Task{
		{Kind: dag.GEMMLU, L: 5, I: 6, J: 7},
		{Kind: dag.GETRF, L: 0},
	}
	for _, tk := range tasks {
		if FIFO.Key(tk) != 0 {
			t.Errorf("FIFO.Key(%v) = %d, want 0", tk, FIFO.Key(tk))
		}
	}
	if CriticalPath.Key(tasks[1]) != Key(tasks[1]) {
		t.Error("CriticalPath.Key must agree with Key")
	}
}

// TestHeapPopsByKeyThenInsertion: pops ascend by key, and equal keys pop in
// push order — the determinism both substrates rely on.
func TestHeapPopsByKeyThenInsertion(t *testing.T) {
	var h Heap
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(1, 11)
	h.Push(1, 12)
	want := []int32{10, 11, 12, 20, 30}
	for i, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

// TestHeapLIFOTie: with TieLIFO the key still dictates cross-class order,
// but equal keys pop most-recently-pushed first — the cache-affinity order
// CriticalPath pairs with.
func TestHeapLIFOTie(t *testing.T) {
	h := NewHeap(TieLIFO)
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(1, 11)
	h.Push(1, 12)
	want := []int32{12, 11, 10, 20, 30}
	for i, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if CriticalPath.Tie() != TieLIFO || FIFO.Tie() != TieFIFO {
		t.Fatal("policy tie-break pairing wrong")
	}
}

// TestHeapRandomizedAgainstSort: under either tie mode, and however pushes
// and pops interleave, each pop returns the first of the queued ids in a
// stable sort on (key, push order), the push order negated under TieLIFO.
func TestHeapRandomizedAgainstSort(t *testing.T) {
	type item struct {
		key int64
		ord int
		id  int32
	}
	rng := rand.New(rand.NewSource(7))
	for _, tie := range []Tie{TieFIFO, TieLIFO} {
		for trial := 0; trial < 100; trial++ {
			h := NewHeap(tie)
			var queued []item
			pushes := rng.Intn(200)
			interleave := trial%2 == 1
			for pushed := 0; pushed < pushes || len(queued) > 0; {
				if pushed < pushes && (len(queued) == 0 || !interleave || rng.Intn(3) < 2) {
					it := item{key: int64(rng.Intn(10)), ord: pushed, id: int32(pushed)}
					if tie == TieLIFO {
						it.ord = -pushed
					}
					h.Push(it.key, it.id)
					queued = append(queued, it)
					pushed++
					continue
				}
				sort.SliceStable(queued, func(a, b int) bool {
					x, y := queued[a], queued[b]
					return x.key < y.key || x.key == y.key && x.ord < y.ord
				})
				want := queued[0]
				queued = queued[1:]
				if got := h.Pop(); got != want.id {
					t.Fatalf("tie %d trial %d: popped %d, want %d", tie, trial, got, want.id)
				}
			}
			if !h.Empty() {
				t.Fatalf("tie %d trial %d: heap not empty after popping every push", tie, trial)
			}
		}
	}
}
