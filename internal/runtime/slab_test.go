package runtime

import (
	"fmt"
	gort "runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// slabShapes are generator shapes whose runs fit one chunk (b = 8), share
// chunks and end in a partial one (b = 32, the serve-mix tile: 121 tiles,
// 16 a chunk; b = 64: 25 tiles, 4 a chunk), or get a chunk a tile (b = 256,
// over the cap).
var slabShapes = [][2]int{{8, 8}, {11, 32}, {5, 64}, {3, 256}}

// TestGeneratorsHandOutDisjointTiles: P goroutines calling one generator side
// by side — the nodes of a run — get tiles whose memory never overlaps and
// whose values are the element functions', every tile of both matrices.
func TestGeneratorsHandOutDisjointTiles(t *testing.T) {
	const P, seed = 8, 11
	for _, shape := range slabShapes {
		mt, b := shape[0], shape[1]
		m := mt * b
		for _, g := range []struct {
			name string
			gen  func(i, j int) *tile.Tile
			ref  func(i, j int) *tile.Tile
		}{
			{"GenDiagDominant", GenDiagDominant(mt, b, seed),
				genDense(b, func(gi, gj int) float64 { return matrix.DiagDominantAt(seed, m, gi, gj) })},
			{"GenSPD", GenSPD(mt, b, seed),
				genDense(b, func(gi, gj int) float64 { return matrix.SPDAt(seed, m, gi, gj) })},
		} {
			t.Run(fmt.Sprintf("%s/mt=%d/b=%d", g.name, mt, b), func(t *testing.T) {
				tiles := make([]*tile.Tile, mt*mt)
				var wg sync.WaitGroup
				for rank := 0; rank < P; rank++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						for k := rank; k < mt*mt; k += P {
							tiles[k] = g.gen(k/mt, k%mt)
						}
					}(rank)
				}
				wg.Wait()
				type span struct{ lo, hi uintptr }
				spans := make([]span, len(tiles))
				for k, tl := range tiles {
					if len(tl.Data) != b*b || cap(tl.Data) != b*b || tl.Rows != b || tl.Cols != b {
						t.Fatalf("tile %d is %dx%d over %d elements, capacity %d", k, tl.Rows, tl.Cols, len(tl.Data), cap(tl.Data))
					}
					lo := uintptr(unsafe.Pointer(&tl.Data[0]))
					spans[k] = span{lo, lo + uintptr(8*b*b)}
					want := g.ref(k/mt, k%mt)
					for e, v := range want.Data {
						if tl.Data[e] != v {
							t.Fatalf("tile (%d,%d) element %d is %v, the element function says %v", k/mt, k%mt, e, tl.Data[e], v)
						}
					}
				}
				sort.Slice(spans, func(a, c int) bool { return spans[a].lo < spans[c].lo })
				for k := 1; k < len(spans); k++ {
					if spans[k].lo < spans[k-1].hi {
						t.Fatalf("two tiles share memory: [%#x, %#x) and [%#x, %#x)",
							spans[k-1].lo, spans[k-1].hi, spans[k].lo, spans[k].hi)
					}
				}
			})
		}
	}
}

// allocsPerChunk is what one slab chunk costs: its record, its tile headers
// and its elements.
const allocsPerChunk = 3

// TestGeneratorAllocatesChunksPerRun: run after run of one generator, the
// tiles of a run cost at most ⌈run bytes / chunkBytes⌉ + 1 chunks — never an
// allocation per tile.
func TestGeneratorAllocatesChunksPerRun(t *testing.T) {
	for _, shape := range slabShapes {
		mt, b := shape[0], shape[1]
		for _, g := range []struct {
			name string
			gen  func(i, j int) *tile.Tile
			run  [][2]int
		}{
			{"GenDiagDominant", GenDiagDominant(mt, b, 5), runTiles(mt, false)},
			{"GenSPD", GenSPD(mt, b, 5), runTiles(mt, true)},
		} {
			runBytes := len(g.run) * 8 * b * b
			chunks := (runBytes+chunkBytes-1)/chunkBytes + 1
			perRun := testing.AllocsPerRun(4, func() {
				for _, ij := range g.run {
					g.gen(ij[0], ij[1])
				}
			})
			t.Logf("%s mt=%d b=%d: %.0f allocations per run of %d tiles", g.name, mt, b, perRun, len(g.run))
			if perRun > float64(allocsPerChunk*chunks) {
				t.Errorf("%s mt=%d b=%d: a run of %d tiles (%d bytes) allocates %.0f objects, want at most %d chunks of %d",
					g.name, mt, b, len(g.run), runBytes, perRun, chunks, allocsPerChunk)
			}
		}
	}
}

// runTiles lists the tiles one factorization run generates: all mt² for LU,
// the lower mt(mt+1)/2 for Cholesky.
func runTiles(mt int, lower bool) [][2]int {
	var ij [][2]int
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if !lower || j <= i {
				ij = append(ij, [2]int{i, j})
			}
		}
	}
	return ij
}

// TestGeneratorLetsGoOfItsSlab: once a run's tiles are dropped and the
// collector has run, the heap is back within one chunk of where it started,
// though the generator itself lives on — it keeps no used-up chunk.
func TestGeneratorLetsGoOfItsSlab(t *testing.T) {
	const mt, b = 40, 32 // 12.5 MiB a run, 100 chunks
	heap := func() int64 {
		var ms gort.MemStats
		gort.GC()
		gort.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	gen := GenDiagDominant(mt, b, 9)
	base := heap()
	for run := 0; run < 3; run++ {
		tiles := make([]*tile.Tile, 0, mt*mt)
		for _, ij := range runTiles(mt, false) {
			tiles = append(tiles, gen(ij[0], ij[1]))
		}
		runBytes := int64(mt * mt * 8 * b * b)
		if held := heap() - base; held < runBytes-chunkBytes {
			t.Fatalf("run %d: the heap grew only %d bytes while its %d tile bytes were held", run, held, runBytes)
		}
		gort.KeepAlive(tiles)
		if after := heap() - base; after > chunkBytes {
			t.Errorf("run %d: %d bytes still held after its tiles were dropped, want at most one chunk (%d)", run, after, chunkBytes)
		}
	}
	gort.KeepAlive(gen)

	// The reason, read off the slab: at the end of every run it holds no chunk.
	for _, shape := range slabShapes {
		mt, b := shape[0], shape[1]
		s := newSlab(b, mt*mt)
		for run := 0; run < 2; run++ {
			for k := 0; k < mt*mt; k++ {
				s.tile()
			}
			if s.cur.Load() != nil {
				t.Errorf("mt=%d b=%d: after run %d the slab still holds its used-up chunk", mt, b, run)
			}
		}
	}
}
