package serve

import (
	"errors"
	"testing"
	"time"

	"anybc/internal/dist"
)

// TestCacheConstructionIsPerKey: a hit on key B returns while key A's
// construction is parked — the cache mutex guards the map, not a GCR&M
// search — and a second caller of A waits for A's one
// construction instead of starting another.
func TestCacheConstructionIsPerKey(t *testing.T) {
	var c PatternCache
	b := dist.NewTwoDBC(1, 2)
	build := func(d dist.Distribution, err error) func() (dist.Distribution, error) {
		return func() (dist.Distribution, error) { return d, err }
	}
	if _, err := c.lookup("b", build(b, nil)); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	got := make(chan dist.Distribution, 2) // both callers of key "a" report here
	a := dist.NewTwoDBC(2, 1)
	go func() {
		d, _ := c.lookup("a", func() (dist.Distribution, error) {
			close(parked)
			<-release
			return a, nil
		})
		got <- d
	}()
	<-parked
	go func() {
		d, _ := c.lookup("a", build(nil, errors.New("key a was constructed twice")))
		got <- d
	}()

	hit := make(chan dist.Distribution, 1)
	go func() {
		d, _ := c.lookup("b", build(nil, errors.New("key b was constructed twice")))
		hit <- d
	}()
	select {
	case d := <-hit:
		if d != dist.Distribution(b) {
			t.Fatalf("hit on key b returned %v", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a hit on key b blocked behind key a's parked construction")
	}
	select {
	case <-got:
		t.Fatal("a lookup of key a returned before its construction finished")
	default:
	}
	close(release)
	for i := 0; i < 2; i++ {
		if d := <-got; d != dist.Distribution(a) {
			t.Fatalf("caller %d of key a got %v", i, d)
		}
	}
	if c.Misses() != 2 {
		t.Errorf("%d misses, want 2 (one per key)", c.Misses())
	}
}

// TestCacheErrorsAreNotCached: a failed construction leaves no entry behind,
// so the next lookup of the key builds again.
func TestCacheErrorsAreNotCached(t *testing.T) {
	var c PatternCache
	boom := errors.New("transient")
	if _, err := c.lookup("k", func() (dist.Distribution, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not returned verbatim: %v", err)
	}
	want := dist.NewTwoDBC(1, 1)
	d, err := c.lookup("k", func() (dist.Distribution, error) { return want, nil })
	if err != nil || d != dist.Distribution(want) {
		t.Fatalf("retry after a failed construction: %v, %v", d, err)
	}
	if _, err := c.Dist("nope", 4); err == nil {
		t.Fatal("unknown scheme constructed")
	}
}
