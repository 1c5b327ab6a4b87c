package runtime

import (
	gort "runtime"
	"sync"
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
)

// genLog wraps a tile generator and remembers every tile it handed out, per
// coordinate in call order (gen runs on the nodes' goroutines).
type genLog struct {
	mu   sync.Mutex
	made map[[2]int][]*tile.Tile
}

func (g *genLog) wrap(gen func(i, j int) *tile.Tile) func(i, j int) *tile.Tile {
	g.made = map[[2]int][]*tile.Tile{}
	return func(i, j int) *tile.Tile {
		t := gen(i, j)
		g.mu.Lock()
		g.made[[2]int{i, j}] = append(g.made[[2]int{i, j}], t)
		g.mu.Unlock()
		return t
	}
}

// TestCollectOwnsTheEnginesTiles pins the hand-over contract of Run/RunPlan:
// collect receives each final tile exactly once, and what it receives is the
// buffer gen produced and the engine updated in place — not a copy. FactorLU
// and FactorCholesky build their result from those buffers, so the matrix a
// caller gets back is made of the tiles its generator allocated.
func TestCollectOwnsTheEnginesTiles(t *testing.T) {
	const mt, b = 8, 64
	d := dist.NewG2DBC(4)

	var log genLog
	seen := map[*tile.Tile][2]int{}
	_, err := Run(dag.NewLU(mt), d, b, log.wrap(GenDiagDominant(mt, b, 5)), LUKernel, Options{},
		func(i, j int, final *tile.Tile) {
			if at, dup := seen[final]; dup {
				t.Errorf("collect got one buffer twice: for (%d,%d) and for (%d,%d)", at[0], at[1], i, j)
			}
			seen[final] = [2]int{i, j}
			if made := log.made[[2]int{i, j}]; len(made) != 1 || made[0] != final {
				t.Errorf("collect got a tile for (%d,%d) that is not the one gen made for it", i, j)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != mt*mt {
		t.Fatalf("collect saw %d distinct tiles, want %d", len(seen), mt*mt)
	}

	want := matrix.NewDiagDominant(mt, b, 5)
	if err := matrix.FactorLU(want); err != nil {
		t.Fatal(err)
	}
	fact, _, err := FactorLU(mt, b, d, log.wrap(GenDiagDominant(mt, b, 5)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	identicalLU(t, "FactorLU", want, fact, mt)
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if fact.Tile(i, j) != log.made[[2]int{i, j}][0] {
				t.Fatalf("FactorLU's tile (%d,%d) is a copy of the engine's, not the engine's", i, j)
			}
		}
	}

	wantL := matrix.NewSPD(mt, b, 6)
	if err := matrix.FactorCholesky(wantL); err != nil {
		t.Fatal(err)
	}
	sbc, err := dist.NewSBC(6)
	if err != nil {
		t.Fatal(err)
	}
	chol, _, err := FactorCholesky(mt, b, sbc, log.wrap(GenSPD(mt, b, 6)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	identicalCholesky(t, "FactorCholesky", wantL, chol, mt)
	for i := 0; i < mt; i++ {
		for j := 0; j <= i; j++ {
			if chol.Tile(i, j) != log.made[[2]int{i, j}][0] {
				t.Fatalf("FactorCholesky's tile (%d,%d) is a copy of the engine's, not the engine's", i, j)
			}
		}
	}
}

// TestFactorCallByteBudget: a FactorLU call allocates its matrix once — the
// tiles gen makes, which the engines update in place and the result is built
// from — plus one buffer per published tile version, which the messages'
// bytes bound. No placeholder matrix, no copy on the way out (3.2 × the
// matrix before the gather moved pointers); the quarter on top is the plan,
// the engines and the pack buffers of a b=64 kernel.
func TestFactorCallByteBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the pack pool recycles nothing under the race detector")
	}
	const mt, b = 8, 64
	d := dist.NewG2DBC(4)
	gen := GenDiagDominant(mt, b, 3)
	call := func() *Report {
		_, rep, err := FactorLU(mt, b, d, gen, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	call() // warm-up: the kernels' pack pool
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	rep := call()
	gort.ReadMemStats(&after)
	matrixBytes := int64(8 * mt * b * mt * b)
	budget := (matrixBytes + rep.Stats.TotalBytes()) * 5 / 4
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > budget {
		t.Errorf("one FactorLU call allocated %d bytes, budget %d = 1.25 × (matrix %d + messages %d)",
			got, budget, matrixBytes, rep.Stats.TotalBytes())
	} else {
		t.Logf("one FactorLU call allocated %d bytes of a %d budget (matrix %d, messages %d)",
			got, budget, matrixBytes, rep.Stats.TotalBytes())
	}
}

// genDense adapts a global element generator to a tile generator, one call
// per element: the reference the row-at-a-time generators are held to.
func genDense(b int, at func(gi, gj int) float64) func(i, j int) *tile.Tile {
	return func(ti, tj int) *tile.Tile {
		t := tile.New(b, b)
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				t.Set(i, j, at(ti*b+i, tj*b+j))
			}
		}
		return t
	}
}

// TestGeneratorsMatchTheElementFunctions: the row-at-a-time generators return,
// element for element, the values the per-element definitions give — every
// tile of both matrices, diagonal, below and (the SPD mirror) above — and
// matrix.NewDiagDominant / NewSPD are made of the same tiles.
func TestGeneratorsMatchTheElementFunctions(t *testing.T) {
	same := func(label string, i, j int, got, want *tile.Tile) {
		t.Helper()
		for k, v := range want.Data {
			if got.Data[k] != v {
				t.Fatalf("%s tile (%d,%d) element (%d,%d) is %v, the element function says %v",
					label, i, j, k/want.Cols, k%want.Cols, got.Data[k], v)
			}
		}
	}
	for _, seed := range []int64{1, 7} {
		for _, shape := range [][2]int{{3, 1}, {3, 5}, {3, 7}, {3, 8}, {4, 16}, {2, 32}, {2, 33}} {
			mt, b := shape[0], shape[1]
			m := mt * b
			refLU := genDense(b, func(gi, gj int) float64 { return matrix.DiagDominantAt(seed, m, gi, gj) })
			refSPD := genDense(b, func(gi, gj int) float64 { return matrix.SPDAt(seed, m, gi, gj) })
			genLU, genSPD := GenDiagDominant(mt, b, seed), GenSPD(mt, b, seed)
			dense, lower := matrix.NewDiagDominant(mt, b, seed), matrix.NewSPD(mt, b, seed)
			for i := 0; i < mt; i++ {
				for j := 0; j < mt; j++ {
					same("GenDiagDominant", i, j, genLU(i, j), refLU(i, j))
					same("NewDiagDominant", i, j, dense.Tile(i, j), refLU(i, j))
					same("GenSPD", i, j, genSPD(i, j), refSPD(i, j))
					if j <= i {
						same("NewSPD", i, j, lower.Tile(i, j), refSPD(i, j))
					}
				}
			}
		}
	}
}
