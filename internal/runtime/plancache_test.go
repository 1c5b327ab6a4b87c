package runtime

import (
	"strings"
	"sync"
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/plan"
)

// reset empties c, as a fresh process finds it.
func (c *planCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m, c.kept, c.compiles = nil, 0, 0
	c.lru.Init()
}

// counts returns the keys c holds, the tasks it keeps and its compiles.
func (c *planCache) counts() (keys, kept, compiles int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.kept, c.compiles
}

// renamed gives a distribution another name, so that two owner maps can
// share one.
type renamed struct {
	dist.Distribution
	name string
}

func (r renamed) Name() string { return r.name }

// luAgainstSequential factors the seed-5 LU test matrix under d and holds
// the factors bit for bit to the sequential ones and the message count to
// the graph's structural volume under d.
func luAgainstSequential(t *testing.T, label string, mt, b int, d dist.Distribution) {
	t.Helper()
	want := matrix.NewDiagDominant(mt, b, 5)
	if err := matrix.FactorLU(want); err != nil {
		t.Fatal(err)
	}
	got, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 5), Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 0) {
				t.Fatalf("%s: tile (%d,%d) differs from sequential", label, i, j)
			}
		}
	}
	if got, want := rep.Stats.TotalMessages(), dag.CommVolumeTiles(dag.NewLU(mt), d.Owner); got != want {
		t.Errorf("%s: %d messages, the graph under %s needs %d", label, got, d.Name(), want)
	}
}

// TestPlanCacheSameShapeSamePlan: a shape asked for twice is compiled once
// and both callers get the same plan.
func TestPlanCacheSameShapeSamePlan(t *testing.T) {
	plans.reset()
	k := shape{graph: graphLU, mt: 6}
	a, err := plans.get(k, dist.NewG2DBC(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := plans.get(k, dist.NewG2DBC(5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("the same shape compiled into two plans")
	}
	if keys, _, compiles := plans.counts(); keys != 1 || compiles != 1 {
		t.Errorf("%d keys, %d compiles; want 1 and 1", keys, compiles)
	}
}

// TestPlanCacheOwnerMapDecides: two distributions of one name and node count
// that place tiles differently never share a plan — each run's factors are
// right and its traffic is its own owner map's.
func TestPlanCacheOwnerMapDecides(t *testing.T) {
	plans.reset()
	const mt, b = 6, 4
	square := renamed{dist.NewTwoDBC(2, 2), "same"}
	row := renamed{dist.NewTwoDBC(1, 4), "same"}
	if dag.CommVolumeTiles(dag.NewLU(mt), square.Owner) == dag.CommVolumeTiles(dag.NewLU(mt), row.Owner) {
		t.Fatal("the two owner maps send as many messages: the test cannot tell their plans apart")
	}
	k := shape{graph: graphLU, mt: mt}
	a, err := plans.get(k, square)
	if err != nil {
		t.Fatal(err)
	}
	c, err := plans.get(k, row)
	if err != nil {
		t.Fatal(err)
	}
	if a == c || !sameOwners(a, square) || !sameOwners(c, row) {
		t.Fatal("two owner maps under one name share a plan")
	}
	for _, d := range []renamed{square, row, square} {
		luAgainstSequential(t, d.Distribution.Name(), mt, b, d)
	}
}

// TestPlanCacheConcurrentColdCompilesOnce: eight FactorLU calls of one shape
// on an empty cache compile it once — the others wait for that compile — and
// all return the same factors.
func TestPlanCacheConcurrentColdCompilesOnce(t *testing.T) {
	plans.reset()
	const mt, b, calls = 8, 4, 8
	d := dist.NewG2DBC(5)
	got := make([]*matrix.Dense, calls)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 3), Options{})
			if err != nil {
				t.Error(err)
			}
			got[c] = m
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := 1; c < calls; c++ {
		identicalLU(t, "concurrent call", got[0], got[c], mt)
	}
	if keys, _, compiles := plans.counts(); keys != 1 || compiles != 1 {
		t.Errorf("%d keys, %d compiles after %d concurrent cold calls; want 1 and 1", keys, compiles, calls)
	}
}

// TestPlanCacheBudget: the tasks of the kept plans never exceed the budget,
// the least recently used plan goes first, and a plan larger than the budget
// is compiled for its caller but not kept.
func TestPlanCacheBudget(t *testing.T) {
	tasks := func(mt int) int { return dag.NewLU(mt).NumTasks() }
	c := planCache{budget: tasks(6) + tasks(7)}
	d := dist.NewG2DBC(3)
	get := func(mt int) *plan.Plan {
		t.Helper()
		pl, err := c.get(shape{graph: graphLU, mt: mt}, d)
		if err != nil {
			t.Fatal(err)
		}
		if _, kept, _ := c.counts(); kept > c.budget {
			t.Fatalf("after LU(%d): %d tasks kept, budget %d", mt, kept, c.budget)
		}
		return pl
	}
	six := get(6)
	get(7)
	if get(6) != six {
		t.Fatal("LU(6) was not kept")
	}
	get(5) // evicts LU(7), the least recently used
	if keys, kept, _ := c.counts(); keys != 2 || kept != tasks(6)+tasks(5) {
		t.Errorf("%d keys, %d tasks kept; want LU(6) and LU(5): 2, %d", keys, kept, tasks(6)+tasks(5))
	}
	if get(6) != six {
		t.Error("LU(6) was evicted before the less recently used LU(7)")
	}
	_, _, before := c.counts()
	big := get(10)
	if tasks(10) <= c.budget {
		t.Fatalf("LU(10) has %d tasks, budget %d: not over it", tasks(10), c.budget)
	}
	if get(10) == big {
		t.Error("a plan over the budget was kept")
	}
	if keys, kept, compiles := c.counts(); keys != 2 || kept != tasks(6)+tasks(5) || compiles != before+2 {
		t.Errorf("after two over-budget calls: %d keys, %d tasks, %d compiles; want 2, %d, %d",
			keys, kept, compiles, tasks(6)+tasks(5), before+2)
	}
}

// TestPlanCacheWarmEqualsCold: FactorLU and FactorCholesky return on a warm
// call exactly what they returned cold, and a warm factorization sends the
// graph's structural message count.
func TestPlanCacheWarmEqualsCold(t *testing.T) {
	plans.reset()
	const mt, b = 7, 4
	d := dist.NewG2DBC(5)
	var lu [2]*matrix.Dense
	var chol [2]*matrix.SymmetricLower
	for pass := 0; pass < 2; pass++ {
		var rep *Report
		var err error
		lu[pass], rep, err = FactorLU(mt, b, d, GenDiagDominant(mt, b, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Stats.TotalMessages(), dag.CommVolumeTiles(dag.NewLU(mt), d.Owner); got != want {
			t.Errorf("LU pass %d: %d messages, Eq. (1) structure %d", pass, got, want)
		}
		chol[pass], rep, err = FactorCholesky(mt, b, d, GenSPD(mt, b, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Stats.TotalMessages(), dag.CommVolumeTiles(dag.NewCholesky(mt), d.Owner); got != want {
			t.Errorf("Cholesky pass %d: %d messages, Eq. (2) structure %d", pass, got, want)
		}
	}
	identicalLU(t, "warm LU", lu[0], lu[1], mt)
	identicalCholesky(t, "warm Cholesky", chol[0], chol[1], mt)
	if keys, _, compiles := plans.counts(); keys != 2 || compiles != 2 {
		t.Errorf("%d keys, %d compiles for two shapes called twice; want 2 and 2", keys, compiles)
	}
}

// TestPlanCacheErrorsAreNotCached: a pair the protocol cannot serve fails
// with the runtime's error and leaves no entry, so the next call of the key
// compiles again.
func TestPlanCacheErrorsAreNotCached(t *testing.T) {
	plans.reset()
	const mt, b = 4, 4
	bad := renamed{outOfRange{dist.NewTwoDBC(2, 2)}, "k"}
	if _, _, err := FactorLU(mt, b, bad, GenDiagDominant(mt, b, 1), Options{}); err == nil || !strings.HasPrefix(err.Error(), "runtime: ") {
		t.Fatalf("out-of-range owner: %v, want a runtime: error", err)
	}
	if keys, kept, _ := plans.counts(); keys != 0 || kept != 0 {
		t.Fatalf("a failed compile left %d keys, %d tasks", keys, kept)
	}
	luAgainstSequential(t, "retry under a valid owner map", mt, b, renamed{dist.NewTwoDBC(2, 2), "k"})
	if keys, _, compiles := plans.counts(); keys != 1 || compiles != 2 {
		t.Errorf("%d keys, %d compiles; want 1 and 2", keys, compiles)
	}
}

// outOfRange maps tile (1, 1) past the last node.
type outOfRange struct{ dist.Distribution }

func (o outOfRange) Owner(i, j int) int {
	if i == 1 && j == 1 {
		return o.Nodes()
	}
	return o.Distribution.Owner(i, j)
}

// TestFactorRejectsBadSizes: every Factor entry point returns a
// named error for a size below 1 instead of panicking in a graph
// constructor, a tile generator or a node goroutine.
func TestFactorRejectsBadSizes(t *testing.T) {
	d := dist.NewTwoDBC(2, 2)
	for _, c := range []struct {
		name, want string
		call       func() error
	}{
		{"FactorLU mt=0", "mt = 0", func() error {
			_, _, err := FactorLU(0, 4, d, GenDiagDominant(1, 4, 1), Options{})
			return err
		}},
		{"FactorLU b=0", "b = 0", func() error {
			_, _, err := FactorLU(4, 0, d, GenDiagDominant(4, 1, 1), Options{})
			return err
		}},
		{"FactorCholesky mt=-1", "mt = -1", func() error {
			_, _, err := FactorCholesky(-1, 4, d, GenSPD(1, 4, 1), Options{})
			return err
		}},
	} {
		err := c.call()
		if err == nil || !strings.HasPrefix(err.Error(), "runtime: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want a runtime: error naming %q", c.name, err, c.want)
		}
	}
}
