package runtime

import (
	"container/list"
	"fmt"
	"sync"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
)

// planBudget bounds the plan cache by the total task count of the plans it
// keeps. A plan takes ≈ 100 B per task, so the cache holds ≈ 26 MB at most.
const planBudget = 1 << 18

// graphKind names the dag constructor of a cached plan's graph.
type graphKind uint8

const (
	graphLU graphKind = iota
	graphCholesky
)

// shape is the key of a cached plan: the graph's constructor with its tile
// count, and the name and node count of the distribution it was compiled
// under. Two distributions with the same name and size may still place tiles
// differently (GCR&M patterns searched under other options), so a key alone
// never decides a hit; planCache.get also compares owner maps.
type shape struct {
	graph graphKind
	mt    int
	dist  string
	nodes int
}

// newGraph builds the task graph of s.
func (s shape) newGraph() dag.Graph {
	switch s.graph {
	case graphLU:
		return dag.NewLU(s.mt)
	case graphCholesky:
		return dag.NewCholesky(s.mt)
	}
	panic(fmt.Sprintf("runtime: unknown graph kind %d", s.graph))
}

// planEntry is one key of the cache: compiled once, by the first caller to
// ask for it, while later callers of the key wait for that one compile.
type planEntry struct {
	key  shape
	once sync.Once
	pl   *plan.Plan
	err  error
	// elem is the entry's place in the recency list, nil until the compiled
	// plan is kept and again once it is evicted.
	elem  *list.Element
	tasks int
}

// planCache is the process-wide cache of compiled plans behind the Factor
// entry points: the paper's "computed once and for all" for the
// static half of a run. Plans are immutable, so one serves any number of
// concurrent runs. The cache keeps plans of at most budget tasks in total and
// evicts the least recently used; a plan larger than the budget is compiled
// for its caller and not kept. Compile errors are returned, not cached.
//
// The mutex guards the map and the recency list, never a compile, so a cold
// key does not block another key's hit.
type planCache struct {
	budget int

	mu       sync.Mutex
	m        map[shape]*planEntry
	lru      list.List // of *planEntry, most recent first
	kept     int       // tasks of the plans in lru
	compiles int       // plans compiled, kept or not
}

var plans = planCache{budget: planBudget}

// get returns the plan of k's graph under d, compiling it on a miss.
func (c *planCache) get(k shape, d dist.Distribution) (*plan.Plan, error) {
	k.dist, k.nodes = d.Name(), d.Nodes()
	c.mu.Lock()
	e := c.m[k]
	if e == nil {
		e = c.add(k)
	} else if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	e.once.Do(func() { c.build(e, d) })
	if e.err == nil && !sameOwners(e.pl, d) {
		// Another owner map under the same name: it takes the key over.
		c.mu.Lock()
		e = c.add(k)
		c.mu.Unlock()
		e.once.Do(func() { c.build(e, d) })
	}
	return e.pl, e.err
}

// add puts a fresh entry under k in place of any entry there. mu is held.
func (c *planCache) add(k shape) *planEntry {
	if old := c.m[k]; old != nil {
		c.forget(old)
	}
	if c.m == nil {
		c.m = make(map[shape]*planEntry)
	}
	e := &planEntry{key: k}
	c.m[k] = e
	return e
}

// forget drops e from the map and the recency list. mu is held.
func (c *planCache) forget(e *planEntry) {
	if c.m[e.key] == e {
		delete(c.m, e.key)
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
		c.kept -= e.tasks
	}
}

// build compiles e's plan, then keeps it — evicting the least recently used
// plans past the budget — unless the compile failed, the plan alone exceeds
// the budget, or another entry took the key over meanwhile.
func (c *planCache) build(e *planEntry, d dist.Distribution) {
	e.pl, e.err = compile(e.key.newGraph(), d)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compiles++
	if e.err == nil {
		_, n := e.pl.Tasks(e.pl.Nodes() - 1) // the end of the last node's range
		e.tasks = int(n)
	}
	if e.err != nil || e.tasks > c.budget || c.m[e.key] != e {
		c.forget(e)
		return
	}
	e.elem = c.lru.PushFront(e)
	c.kept += e.tasks
	for c.kept > c.budget {
		c.forget(c.lru.Back().Value.(*planEntry))
	}
}

// sameOwners reports whether d places every tile of pl where pl's own
// distribution does. A plan depends on its distribution only through the
// owners of the tiles some task writes — every tile a valid plan reads is
// one — so pl serves d exactly when this holds.
func sameOwners(pl *plan.Plan, d dist.Distribution) bool {
	for r := 0; r < pl.Nodes(); r++ {
		lo, hi := pl.Tiles(r)
		for t := lo; t < hi; t++ {
			if i, j := pl.TileCoords(t); d.Owner(i, j) != r {
				return false
			}
		}
	}
	return true
}
