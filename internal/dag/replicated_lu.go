package dag

import (
	"fmt"
	"math/bits"

	"anybc/internal/tile"
)

// Replication task kinds (COnfLUX-style 2.5D LU; Kwasniewski et al.,
// arXiv:2010.05975). Values continue the kind numbering after the GEMM
// operand kinds (iota+24).
const (
	// GEMMPart is a per-layer partial trailing update: layer q's accumulator
	// for tile (i, j) absorbs −A[i][ℓ]·A[ℓ][j] for the iterations ℓ the layer
	// is responsible for (ℓ ≡ q mod c). The accumulator starts at zero, so
	// after the last partial it holds exactly −Σ of that layer's products.
	GEMMPart Kind = iota + 32
	// ReduceAdd combines two members of a tile's reduction group: it adds the
	// child layer's accumulator into its binomial parent's buffer (the
	// canonical tile itself when the parent is the group root). The combine
	// schedule is program's; the runtime and the simulator only follow the
	// edges it produces.
	ReduceAdd
)

// ReplicatedLU is the task graph of the replicated (2.5D-style) right-looking
// tiled LU factorization: the summation dimension (the update iterations ℓ)
// is sliced round-robin over c layers, each layer accumulates its share of
// every tile's trailing updates into a private accumulator tile, and a
// binomial reduction folds the accumulators into the canonical tile right
// before its panel kernel.
//
// Tile coordinate space (accumulators as extra tile columns):
//
//	(i, j), j < mt            canonical tile — holds A(i,j), updated in place
//	                          by the canonical layer's GEMMs and the reduce
//	(i, (1+q)·mt + j)         layer q's accumulator for tile (i, j), zero at
//	                          start (only layers that contribute materialize)
//
// The canonical layer of tile (i, j) is f(k) = k mod c with k = min(i, j):
// the layer that runs iteration k's panel. Panels therefore compute on the
// layer that consumes them, so panel broadcasts stay inside one layer's
// base grid — the √c-smaller neighborhood that is the 2.5D bandwidth win —
// and only accumulator shipments cross layers.
//
// With c = 1 the graph degenerates exactly to NewLU's structure: every
// update is a canonical GEMMLU, no accumulators and no reductions exist, and
// the per-tile kernel order (hence the floating-point result) is identical.
type ReplicatedLU struct {
	*Built
	mt, c int
}

// NewReplicatedLU builds the replicated LU task graph for an mt×mt tile
// matrix with c layers. c = 1 is the unreplicated graph (structurally equal
// to NewLU); layers beyond the iteration count never receive work.
func NewReplicatedLU(mt, c int) *ReplicatedLU {
	if mt <= 0 {
		panic(fmt.Sprintf("dag: invalid tile count %d", mt))
	}
	if c <= 0 {
		panic(fmt.Sprintf("dag: invalid replication factor %d", c))
	}
	g := &ReplicatedLU{mt: mt, c: c}
	g.Built = Build(Program{
		Name:       fmt.Sprintf("LU/c=%d", c),
		Tiles:      mt, // the canonical tile-matrix side
		Tasks:      g.program,
		OutputTile: g.outputTile,
		InputTiles: g.inputTiles,
		Flops:      replicatedFlops,
		// Every accumulator-producing task is a partial; only the chain's
		// last writer ever publishes, and its sole remote consumer is the
		// combine on the parent member's node.
		ReducePartial: func(t Task) bool {
			_, j := g.outputTile(t)
			return j >= mt
		},
	})
	return g
}

// layer returns the layer responsible for iteration l's updates (and panel).
func (g *ReplicatedLU) layer(l int) int { return l % g.c }

// nRed returns the number of ReduceAdd tasks of a tile first factored at
// iteration k: one per contributing non-canonical layer. Iterations 0..k-1
// touch layers {0..min(k,c)-1}; the canonical layer k mod c is in that set
// exactly when k ≥ c.
func (g *ReplicatedLU) nRed(k int) int {
	if k < g.c-1 {
		return k
	}
	return g.c - 1
}

// member maps a reduction-group index s (0 = root) of a tile with panel
// iteration k to the layer it stands for: the root is the canonical layer
// k mod c, and indices 1..nRed(k) walk the remaining contributing layers in
// ascending order.
func (g *ReplicatedLU) member(k, s int) int {
	r := g.layer(k)
	if s == 0 {
		return r
	}
	q := s - 1
	if q >= r {
		q++
	}
	return q
}

// program is the sequential program, which states no iterations: a combine
// reads accumulators written many iterations before. Per iteration ℓ: first
// the reductions finalizing the panel's tiles (they consume earlier
// iterations' partial updates), then the panel kernels, then the trailing
// updates — a canonical GEMMLU when the iteration's layer is the tile's
// canonical layer, a partial GEMMPart into the layer's accumulator
// otherwise. Within one tile's reduction group, member s folds into its
// binomial parent s − lowbit(s), deeper members before their parents
// (depth = popcount of the member index) and siblings ascending.
func (g *ReplicatedLU) program(_ int, submit func(Task)) {
	mt := g.mt
	for l := 0; l < mt; l++ {
		l32 := int32(l)
		reduce := func(i, j int) {
			for depth := bits.Len(uint(g.nRed(l))); depth > 0; depth-- {
				for s := 1; s <= g.nRed(l); s++ {
					if bits.OnesCount(uint(s)) == depth {
						submit(Task{Kind: ReduceAdd, L: int32(s), I: int32(i), J: int32(j)})
					}
				}
			}
		}
		reduce(l, l)
		for i := l + 1; i < mt; i++ {
			reduce(i, l)
		}
		for j := l + 1; j < mt; j++ {
			reduce(l, j)
		}
		submit(Task{Kind: GETRF, L: l32, I: l32, J: l32})
		for i := l + 1; i < mt; i++ {
			submit(Task{Kind: TRSMCol, L: l32, I: int32(i)})
			submit(Task{Kind: TRSMRow, L: l32, I: int32(i)})
		}
		for i := l + 1; i < mt; i++ {
			for j := l + 1; j < mt; j++ {
				kind := GEMMPart
				if g.layer(l) == g.layer(min(i, j)) {
					kind = GEMMLU
				}
				submit(Task{Kind: kind, L: l32, I: int32(i), J: int32(j)})
			}
		}
	}
}

// accTile returns the coordinates of layer q's accumulator for tile (i, j).
func (g *ReplicatedLU) accTile(q, i, j int) (int, int) {
	return i, (1+q)*g.mt + j
}

func (g *ReplicatedLU) outputTile(t Task) (int, int) {
	switch t.Kind {
	case GETRF:
		return int(t.L), int(t.L)
	case TRSMCol:
		return int(t.I), int(t.L)
	case TRSMRow:
		return int(t.L), int(t.I)
	case GEMMLU:
		return int(t.I), int(t.J)
	case GEMMPart:
		return g.accTile(g.layer(int(t.L)), int(t.I), int(t.J))
	default: // ReduceAdd: the parent member's buffer, the tile itself at the root
		s := int(t.L)
		i, j := int(t.I), int(t.J)
		p := s - s&(-s)
		if p == 0 {
			return i, j
		}
		return g.accTile(g.member(min(i, j), p), i, j)
	}
}

func (g *ReplicatedLU) inputTiles(t Task, visit func(i, j int)) {
	l := int(t.L)
	switch t.Kind {
	case GETRF:
	case TRSMCol, TRSMRow:
		visit(l, l)
	case GEMMLU, GEMMPart:
		visit(int(t.I), l)
		visit(l, int(t.J))
	case ReduceAdd:
		i, j := int(t.I), int(t.J)
		visit(g.accTile(g.member(min(i, j), l), i, j))
	}
}

func replicatedFlops(t Task, b int) float64 {
	switch t.Kind {
	case GETRF:
		return tile.FlopsGetrf(b)
	case TRSMCol, TRSMRow:
		return tile.FlopsTrsm(b)
	case ReduceAdd:
		return tile.FlopsGeadd(b)
	default:
		return tile.FlopsGemm(b)
	}
}
