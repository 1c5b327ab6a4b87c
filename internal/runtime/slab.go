package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"anybc/internal/tile"
)

// chunkBytes caps one chunk of a generator's slab. A b = 32 tile is 8 KiB,
// a size class Go gives one span per object; carving a run's tiles from
// 128 KiB chunks makes the matrix a few allocations instead of one per tile.
// Tiles of 128 KiB and more (b ≥ 128) get a chunk each. Larger chunks cost
// memory: with 4 MiB ones, half the runs of an lu-compute-shaped loop (b =
// 256) peaked above 240 MiB RSS, against 1 in 16 with a chunk per tile.
const chunkBytes = 128 << 10

// slab is the storage behind GenDiagDominant and GenSPD: it carves b×b tiles
// out of chunks, each covering the rest of the current run's tiles (run is
// the number one factorization generates) up to chunkBytes and never less
// than one tile. The P nodes generate side by side, so a tile is carved with
// an atomic cursor, and the lock guards only the bookkeeping of a refill:
// the chunk itself is allocated outside it, so chunks of one tile are
// allocated side by side and only the callers of a shared chunk wait for it.
// No memory is handed out twice, and the slab lets go of a chunk as soon as
// its last tile is out: what the chunk still holds belongs to the tiles.
type slab struct {
	b, run  int
	cur     atomic.Pointer[chunk]
	mu      sync.Mutex
	filled  sync.Cond // broadcast when a shared chunk is installed
	filling bool      // a shared chunk is being allocated (under mu)
	left    int       // tiles of the current run no chunk has covered yet (under mu)
}

// chunk is one allocation of tiles: their headers and their elements.
type chunk struct {
	next  atomic.Int64 // index of the next tile to hand out
	tiles []tile.Tile
}

func newSlab(b, run int) *slab {
	s := &slab{b: b, run: run}
	s.filled.L = &s.mu
	return s
}

// tile returns a zeroed b×b tile no other call of this slab returns.
func (s *slab) tile() *tile.Tile {
	for {
		if c := s.cur.Load(); c != nil {
			k := c.next.Add(1) - 1
			if n := int64(len(c.tiles)); k < n {
				if k == n-1 {
					s.cur.CompareAndSwap(c, nil)
				}
				return &c.tiles[k]
			}
		}
		if t := s.refill(); t != nil {
			return t
		}
	}
}

// refill allocates the next chunk and returns its first tile, installing the
// rest for the other callers. It returns nil when the current chunk has room
// after all: another caller installed one first.
func (s *slab) refill() *tile.Tile {
	s.mu.Lock()
	for s.filling {
		s.filled.Wait()
	}
	if c := s.cur.Load(); c != nil && c.next.Load() < int64(len(c.tiles)) {
		s.mu.Unlock()
		return nil
	}
	if s.b <= 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("runtime: invalid tile side %d", s.b))
	}
	if s.left <= 0 {
		s.left = max(s.run, 1)
	}
	bb := s.b * s.b
	n := min(s.left, max(chunkBytes/(8*bb), 1))
	s.left -= n
	s.filling = n > 1
	s.mu.Unlock()

	data := make([]float64, n*bb)
	c := &chunk{tiles: make([]tile.Tile, n)}
	for k := range c.tiles {
		c.tiles[k] = tile.Tile{Rows: s.b, Cols: s.b, Data: data[k*bb : (k+1)*bb : (k+1)*bb]}
	}
	if n > 1 {
		c.next.Store(1)
		s.mu.Lock()
		s.cur.Store(c)
		s.filling = false
		s.filled.Broadcast()
		s.mu.Unlock()
	}
	return &c.tiles[0]
}
