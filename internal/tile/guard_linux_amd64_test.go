package tile

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n float64s that end exactly where an inaccessible
// page begins: a load or store one byte past them faults, a prefetch does not.
func guardedFloats(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("no anonymous mapping to guard: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test is over either way
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("cannot protect the guard page: %v", err)
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), size/8)
	return all[len(all)-n:]
}

// TestPrefetchNeverLoads: the assembly kernels prefetch — the microkernels
// their C block, the pack helpers the source rows a later pass will read —
// and a prefetch may name memory past the operand, which here is a page that
// faults on any access. Each routine runs on operands that end at that page
// and must return what it returns on ordinary memory.
func TestPrefetchNeverLoads(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("an assembly routine touched memory past its operand: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(34))
	const kb = 9
	for _, mk := range testKernels(t) {
		micro = mk
		// A C block on the last rows of its tile, the tile on the last bytes
		// before the guard.
		ap, bp := randomTile(rng, kb, mk.mr), randomTile(rng, kb, mk.nr)
		c0 := randomTile(rng, mk.mr, mk.nr)
		want := c0.Clone()
		mk.run(ap.Data, bp.Data, kb, -1, want.Data, mk.nr)
		c := guardedFloats(t, mk.mr*mk.nr)
		copy(c, c0.Data)
		mk.run(ap.Data, bp.Data, kb, -1, c, mk.nr)
		for i, v := range c {
			if v != want.Data[i] {
				t.Fatalf("[%s] C element %d is %g next to the guard page, %g away from it", mk.name, i, v, want.Data[i])
			}
		}

		// Both pack traversals over a source whose last row is the last
		// thing mapped.
		const rows, ld = 2*16 + 3, 40
		x0 := randomTile(rng, rows, ld)
		x := guardedFloats(t, rows*ld)
		copy(x, x0.Data)
		for _, trans := range []bool{false, true} {
			cnt, depth := rows, ld
			if trans {
				cnt, depth = ld, rows
			}
			for _, w := range []int{mk.mr, mk.nr} {
				n := (cnt + w - 1) / w * w * depth
				got, ref := make([]float64, n), make([]float64, n)
				packStrips(ref, opView{data: x0.Data, ld: ld, trans: trans}, 0, cnt, 0, depth, w)
				packStrips(got, opView{data: x, ld: ld, trans: trans}, 0, cnt, 0, depth, w)
				for i, v := range got {
					if v != ref[i] {
						t.Fatalf("[%s] w=%d trans=%v: packed element %d is %g next to the guard page, %g away from it",
							mk.name, w, trans, i, v, ref[i])
					}
				}
			}
		}
	}
}
