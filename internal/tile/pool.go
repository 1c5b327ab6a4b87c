package tile

import (
	"sync"
	"sync/atomic"
)

// Pool recycles tile buffers keyed by shape, so steady-state communication
// (one clone per published tile version) stops allocating once the working
// set has warmed up. Tiles returned by Get have unspecified contents — the
// caller is expected to overwrite them (CopyFrom / kernel output).
//
// A Pool must not be copied after first use. The zero value is ready to use.
type Pool struct {
	m    sync.Map // shape key -> *sync.Pool of *Tile
	gets atomic.Int64
	puts atomic.Int64
}

func poolKey(rows, cols int) uint64 {
	return uint64(uint32(rows))<<32 | uint64(uint32(cols))
}

// Get returns a rows×cols tile, reusing a released buffer of the same shape
// when one is available. Contents are unspecified.
func (p *Pool) Get(rows, cols int) *Tile {
	p.gets.Add(1)
	if e, ok := p.m.Load(poolKey(rows, cols)); ok {
		if t, ok := e.(*sync.Pool).Get().(*Tile); ok && t != nil {
			return t
		}
	}
	return New(rows, cols)
}

// Put releases t back to the pool. The caller must not use t afterwards.
func (p *Pool) Put(t *Tile) {
	if t == nil {
		return
	}
	p.puts.Add(1)
	// Load first: LoadOrStore's argument is built — allocated — on every
	// call, needed or not, and a shape's free list is new only once.
	key := poolKey(t.Rows, t.Cols)
	e, ok := p.m.Load(key)
	if !ok {
		e, _ = p.m.LoadOrStore(key, &sync.Pool{})
	}
	e.(*sync.Pool).Put(t)
}

// Clone returns a pooled deep copy of src.
func (p *Pool) Clone(src *Tile) *Tile {
	t := p.Get(src.Rows, src.Cols)
	copy(t.Data, src.Data)
	return t
}

// Outstanding returns the number of tiles drawn from the pool and not yet
// returned (Gets minus Puts). Every borrower of a pooled buffer eventually
// puts it back — kernels within one call, message clones when the last
// recipient releases them — so a run that finished cleanly (or was cancelled
// and drained) leaves the pool balanced at zero. A persistently positive
// value is a leak: a payload share somebody forgot to Release. Momentarily
// negative values cannot occur (Put without Get hands the pool a foreign
// tile, which callers never do).
func (p *Pool) Outstanding() int64 {
	return p.gets.Load() - p.puts.Load()
}
