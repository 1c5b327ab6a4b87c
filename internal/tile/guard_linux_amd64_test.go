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
		mk.run(ap.Data, 1, mk.mr, bp.Data, mk.nr, kb, -1, want.Data, mk.nr)
		c := guardedFloats(t, mk.mr*mk.nr)
		copy(c, c0.Data)
		mk.run(ap.Data, 1, mk.mr, bp.Data, mk.nr, kb, -1, c, mk.nr)
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

// TestPassesStayInsideTheirOperands: the fill stores and the sum of squares
// loads its last elements under a mask, and neither may touch the float64
// after its slice, here the first byte of a page that faults. Each runs at
// every length of passLengths on a slice that ends at the guard, under every
// kernel, and must return what it returns on ordinary memory.
func TestPassesStayInsideTheirOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("an O(n²) pass touched memory past its operand: %v", r)
		}
	}()
	const key = 0xfeedface
	for _, mk := range testKernels(t) {
		micro = mk
		for _, n := range passLengths() {
			want := make([]float64, n)
			fillUniformGo(want, key)
			x := guardedFloats(t, n)
			FillUniform(x, key)
			for i, v := range x {
				if v != want[i] {
					t.Fatalf("[%s] n=%d: filled element %d is %v next to the guard page, %v away from it", mk.name, n, i, v, want[i])
				}
			}
			if got, want := sumSquares(x), sumSquaresGo(want); got != want {
				t.Fatalf("[%s] n=%d: sum of squares %v next to the guard page, %v away from it", mk.name, n, got, want)
			}
		}
	}
}

// guardedTile is a copy of src whose last element is the last float64 before
// the guard page.
func guardedTile(t *testing.T, src *Tile) *Tile {
	t.Helper()
	g := &Tile{Rows: src.Rows, Cols: src.Cols, Data: guardedFloats(t, len(src.Data))}
	copy(g.Data, src.Data)
	return g
}

// TestDirectGemmStaysInsideItsOperands: the in-place path reads op(A) and
// op(B) where they lie, so a block or strip the kernel would read whole past
// an operand's last row or column must have been copied first. Every Gemm
// here runs in place with A, B and C each ending at a guard page — edge
// strips narrower than either kernel's nr (an 8-column edge under the 8×16
// kernel at n = 24, n = 5), an edge block of m = 5 rows, depth 1 — and must
// fault nowhere and return what it returns on ordinary memory.
func TestDirectGemmStaysInsideItsOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("the in-place GEMM touched memory past an operand: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(35))
	shapes := [][3]int{{8, 8, 8}, {5, 9, 3}, {16, 24, 7}, {5, 8, 1}, {13, 5, 1}, {32, 32, 32}, {29, 31, 17}}
	for _, mk := range testKernels(t) {
		micro = mk
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			for _, ta := range []Trans{NoTrans, TransT} {
				for _, tb := range []Trans{NoTrans, TransT} {
					a, b := randomTile(rng, m, k), randomTile(rng, k, n)
					if ta == TransT {
						a = randomTile(rng, k, m)
					}
					if tb == TransT {
						b = randomTile(rng, n, k)
					}
					c0 := randomTile(rng, m, n)
					want := c0.Clone()
					Gemm(ta, tb, -1, a, b, 1, want)
					c := guardedTile(t, c0)
					Gemm(ta, tb, -1, guardedTile(t, a), guardedTile(t, b), 1, c)
					for i, v := range c.Data {
						if v != want.Data[i] {
							t.Fatalf("[%s] Gemm(%v,%v) %dx%dx%d: C element %d is %g next to the guard pages, %g away from them",
								mk.name, ta, tb, m, n, k, i, v, want.Data[i])
						}
					}
				}
			}
		}
	}
}
