package sched

import (
	"fmt"
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

// TestHeapPopsByKeyThenInsertion: pops ascend by key, and equal keys pop
// most recently pushed first — the determinism both substrates rely on. The
// zero value is such a queue.
func TestHeapPopsByKeyThenInsertion(t *testing.T) {
	var h Heap
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
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

// TestHeapLIFOTie: from NewHeap the key still dictates cross-class order,
// but equal keys pop most-recently-pushed first — the cache-affinity order
// the critical-path key pairs with.
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
}

// TestHeapRandomizedAgainstSort: from NewHeap and from the zero value,
// however pushes and pops interleave, each pop returns the first of the
// queued ids in a stable sort on (key, negated push order). The key streams are the ones a bucket queue
// can get wrong: heavy ties on one to three keys, monotone runs that open a
// bucket at either end, and pops frequent enough to empty buckets and
// re-create them.
func TestHeapRandomizedAgainstSort(t *testing.T) {
	type item struct {
		key int64
		ord int
		id  int32
	}
	tenKeys := func(rng *rand.Rand) func(int) int64 {
		return func(int) int64 { return int64(rng.Intn(10)) }
	}
	cases := []struct {
		name string
		keys func(rng *rand.Rand) func(i int) int64 // one trial's key stream
		pops int                                    // chance in 6 that a step pops while pushes remain
	}{
		{"ten keys", tenKeys, 0},
		{"ten keys interleaved", tenKeys, 2},
		{"one to three keys", func(rng *rand.Rand) func(int) int64 {
			k := 1 + rng.Intn(3)
			return func(int) int64 { return int64(rng.Intn(k))*1000 - 1000 }
		}, 1},
		{"ascending runs", func(rng *rand.Rand) func(int) int64 {
			run := 1 + rng.Intn(50)
			return func(i int) int64 { return int64(i % run) }
		}, 1},
		{"descending runs", func(rng *rand.Rand) func(int) int64 {
			run := 1 + rng.Intn(50)
			return func(i int) int64 { return int64(run - i%run) }
		}, 1},
		{"buckets emptied and re-created", func(rng *rand.Rand) func(int) int64 {
			return func(int) int64 { return int64(rng.Intn(4)) }
		}, 3},
	}
	heaps := []struct {
		name string
		new  func() Heap
	}{
		{"NewHeap", func() Heap { return NewHeap(TieLIFO) }},
		{"zero value", func() Heap { return Heap{} }},
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		for _, hc := range heaps {
			for trial := 0; trial < 100; trial++ {
				h := hc.new()
				key := c.keys(rng)
				var queued []item
				pushes := rng.Intn(200)
				for pushed := 0; pushed < pushes || len(queued) > 0; {
					if pushed < pushes && (len(queued) == 0 || rng.Intn(6) >= c.pops) {
						it := item{key: key(pushed), ord: -pushed, id: int32(pushed)}
						h.Push(it.key, it.id)
						queued = append(queued, it)
						pushed++
					} else {
						sort.SliceStable(queued, func(a, b int) bool {
							x, y := queued[a], queued[b]
							return x.key < y.key || x.key == y.key && x.ord < y.ord
						})
						want := queued[0]
						queued = queued[1:]
						if got := h.Pop(); got != want.id {
							t.Fatalf("%s, %s, trial %d: popped %d, want %d", c.name, hc.name, trial, got, want.id)
						}
					}
					if h.Len() != len(queued) || h.Empty() != (len(queued) == 0) {
						t.Fatalf("%s, %s, trial %d: Len %d, Empty %v with %d queued",
							c.name, hc.name, trial, h.Len(), h.Empty(), len(queued))
					}
				}
			}
		}
	}
}

// TestHeapReusesStorage: a queue that was filled and drained once allocates
// nothing to be filled and drained again the same way — the buckets and the
// links are reused.
func TestHeapReusesStorage(t *testing.T) {
	h := NewHeap(TieLIFO)
	cycle := func() {
		for i := 0; i < 500; i++ {
			h.Push(int64(i%37-i%5), int32(i))
		}
		for !h.Empty() {
			h.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("a warm fill-and-drain allocated %.0f times", allocs)
	}
}

// BenchmarkHeapProgramOrder pushes every task key of an LU graph in program
// order, then pops them all, as bench's sched.heap_ns_per_op probe does.
// Program order is mostly ascending, so nearly every new key opens a bucket
// at the far end of the descending bucket slice — the queue's worst insert.
// ns/op is per push or pop.
func BenchmarkHeapProgramOrder(b *testing.B) {
	for _, mt := range []int{24, 100} {
		var keys []int64
		dag.ForEachTask(dag.NewLU(mt), func(t dag.Task) { keys = append(keys, Key(t)) })
		b.Run(fmt.Sprintf("LU%d", mt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := NewHeap(TieLIFO)
				for id, k := range keys {
					h.Push(k, int32(id))
				}
				for !h.Empty() {
					h.Pop()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(keys)), "ns/op")
		})
	}
}
