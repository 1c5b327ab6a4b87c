package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/plan"
)

// PatternCache memoizes the expensive precomputation shared by jobs of the
// same shape: distributions keyed on (scheme, P), and compiled execution
// plans keyed on (kind, mt, scheme, P) — the whole shape of a job. A
// distribution depends only on the scheme and node count (for GCR&M a full
// pattern search, the patterndb workload); a plan is the job's task graph
// walked once under that distribution. Both are immutable after
// construction, so one instance serves any number of concurrent jobs, and a
// warm job's set-up is a map lookup plus the engines' per-run slices. With
// Dir set, GCR&M patterns are first looked up in a cmd/patterndb database
// directory (gcrm-%04d.pattern files) before falling back to an in-process
// search, so a service pointed at a prebuilt database never pays the search
// even on a cold cache.
//
// Construction is per key: the cache's mutex guards only the maps, never a
// pattern search or a plan compile, so one tenant's cold key does not block
// another tenant's hit. Callers of a key under construction wait for that
// one construction.
type PatternCache struct {
	// Dir is an optional cmd/patterndb database directory for GCR&M.
	Dir string

	mu     sync.Mutex
	dists  map[string]*entry[dist.Distribution]
	plans  map[string]*entry[*plan.Plan]
	hits   atomic.Int64
	misses atomic.Int64
}

// entry is one cache key: built once, by the first caller to ask for it.
type entry[T any] struct {
	once sync.Once
	v    T
	err  error
}

// lookup returns the value of key in *m, building it on first use. The call
// that creates the entry counts as the miss and every other as a hit, whether
// or not it has to wait for the build. Build errors are returned verbatim and
// not cached: the failed entry is dropped, so a transient failure (a
// patterndb read error) does not poison the key.
func lookup[T any](c *PatternCache, m *map[string]*entry[T], key string, build func() (T, error)) (T, error) {
	c.mu.Lock()
	e, ok := (*m)[key]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		if *m == nil {
			*m = make(map[string]*entry[T])
		}
		e = new(entry[T])
		(*m)[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	if e.err != nil {
		c.mu.Lock()
		if (*m)[key] == e {
			delete(*m, key)
		}
		c.mu.Unlock()
	}
	return e.v, e.err
}

// Dist returns the distribution for scheme on P nodes, constructing and
// caching it on first use. Construction errors (unknown scheme, node counts
// a scheme cannot serve) are returned verbatim.
func (c *PatternCache) Dist(scheme string, P int) (dist.Distribution, error) {
	scheme = strings.ToLower(scheme)
	return lookup(c, &c.dists, fmt.Sprintf("%s|%d", scheme, P), func() (dist.Distribution, error) {
		if c.Dir != "" && core.Scheme(scheme) == core.GCRM {
			if d, err := core.FromDB(c.Dir, P); err == nil {
				return d, nil
			}
		}
		return core.New(core.Scheme(scheme), P, core.Options{})
	})
}

// Plan returns the compiled execution plan of a kind ("lu" or "cholesky")
// job on an mt×mt tile matrix under scheme on P nodes, compiling and caching
// it on first use. Unknown kinds return an error; Submit validates the kind
// before jobs reach here.
func (c *PatternCache) Plan(kind string, mt int, scheme string, P int) (*plan.Plan, error) {
	scheme = strings.ToLower(scheme)
	return lookup(c, &c.plans, fmt.Sprintf("%s|%d|%s|%d", kind, mt, scheme, P), func() (*plan.Plan, error) {
		var g dag.Graph
		switch kind {
		case KindLU:
			g = dag.NewLU(mt)
		case KindCholesky:
			g = dag.NewCholesky(mt)
		default:
			return nil, fmt.Errorf("serve: unknown job kind %q", kind)
		}
		d, err := c.Dist(scheme, P)
		if err != nil {
			return nil, err
		}
		return plan.Compile(g, d)
	})
}

// Hits returns the number of cache lookups served from memory.
func (c *PatternCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache lookups that had to construct.
func (c *PatternCache) Misses() int64 { return c.misses.Load() }
