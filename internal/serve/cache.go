package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"anybc/internal/core"
	"anybc/internal/dist"
)

// PatternCache memoizes the distribution of each (scheme, P), built by
// core.New: for GCR&M the pattern core embeds for P ≤ 64 and a search above
// it. A distribution is immutable after construction, so one instance serves
// any number of concurrent jobs. Compiled plans are not kept here: the
// runtime's Factor entry points keep one process-wide plan cache for every
// caller.
//
// Construction is per key: the cache's mutex guards only the map, never a
// pattern search, so one tenant's cold key does not block another tenant's
// hit. Callers of a key under construction wait for that one construction.
type PatternCache struct {
	mu     sync.Mutex
	dists  map[string]*entry
	hits   atomic.Int64
	misses atomic.Int64
}

// entry is one cache key: built once, by the first caller to ask for it.
type entry struct {
	once sync.Once
	d    dist.Distribution
	err  error
}

// lookup returns the distribution of key, building it on first use. The call
// that creates the entry counts as the miss and every other as a hit, whether
// or not it has to wait for the build. Build errors are returned verbatim and
// not cached: the failed entry is dropped, so a failed build is retried on
// the next lookup rather than pinned to the key.
func (c *PatternCache) lookup(key string, build func() (dist.Distribution, error)) (dist.Distribution, error) {
	c.mu.Lock()
	e, ok := c.dists[key]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		if c.dists == nil {
			c.dists = make(map[string]*entry)
		}
		e = new(entry)
		c.dists[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.d, e.err = build() })
	if e.err != nil {
		c.mu.Lock()
		if c.dists[key] == e {
			delete(c.dists, key)
		}
		c.mu.Unlock()
	}
	return e.d, e.err
}

// Dist returns the distribution for scheme on P nodes, constructing and
// caching it on first use. Construction errors (unknown scheme, node counts
// a scheme cannot serve) are returned verbatim.
func (c *PatternCache) Dist(scheme string, P int) (dist.Distribution, error) {
	scheme = strings.ToLower(scheme)
	return c.lookup(fmt.Sprintf("%s|%d", scheme, P), func() (dist.Distribution, error) {
		return core.New(core.Scheme(scheme), P, core.Options{})
	})
}

// Hits returns the number of cache lookups served from memory.
func (c *PatternCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache lookups that had to construct.
func (c *PatternCache) Misses() int64 { return c.misses.Load() }
