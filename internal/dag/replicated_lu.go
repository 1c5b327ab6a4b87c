package dag

import (
	"fmt"

	"anybc/internal/cluster"
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
	// schedule is cluster.ReduceChildren's, shared with the runtime and the
	// simulator.
	ReduceAdd
)

// ReduceGraph is implemented by graphs whose schedule includes reductions of
// replicated partial results. The runtime and the simulator use it to route
// (and count) accumulator shipments as reduction traffic rather than
// ordinary owner→consumer broadcasts.
type ReduceGraph interface {
	Graph
	// ReducePartial reports whether t's output tile is a reduction partial —
	// a layer accumulator whose only possible remote consumer is the combine
	// task folding it toward the canonical tile.
	ReducePartial(t Task) bool
}

// ReplicatedLU is the task graph of the replicated (2.5D-style) right-looking
// tiled LU factorization: the summation dimension (the update iterations ℓ)
// is sliced round-robin over c layers, each layer accumulates its share of
// every tile's trailing updates into a private accumulator tile, and a
// binomial reduction folds the accumulators into the canonical tile right
// before its panel kernel.
//
// Tile coordinate space (the GEMMOp extended-coordinate idiom):
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
	mt, c                              int
	trsmColBase, trsmRowBase, gemmBase int
	redBase                            int
	s1                                 []int // s1[l] = Σ_{k<l} (mt-1-k)
	s2                                 []int // s2[l] = Σ_{k<l} (mt-1-k)²
	s3                                 []int // s3[l] = Σ_{k<l} (2(mt-k)-1)·nRed(k)
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
	g := &ReplicatedLU{mt: mt, c: c,
		s1: make([]int, mt+1), s2: make([]int, mt+1), s3: make([]int, mt+1)}
	for l := 0; l < mt; l++ {
		k := mt - 1 - l
		g.s1[l+1] = g.s1[l] + k
		g.s2[l+1] = g.s2[l] + k*k
		g.s3[l+1] = g.s3[l] + (2*(mt-l)-1)*g.nRed(l)
	}
	g.trsmColBase = mt
	g.trsmRowBase = g.trsmColBase + g.s1[mt]
	g.gemmBase = g.trsmRowBase + g.s1[mt]
	g.redBase = g.gemmBase + g.s2[mt]
	return g
}

// Name implements Graph.
func (g *ReplicatedLU) Name() string { return fmt.Sprintf("LU/c=%d", g.c) }

// Tiles implements Graph (the canonical tile-matrix side).
func (g *ReplicatedLU) Tiles() int { return g.mt }

// Replication returns the layer count c.
func (g *ReplicatedLU) Replication() int { return g.c }

// NumTasks implements Graph.
func (g *ReplicatedLU) NumTasks() int { return g.redBase + g.s3[g.mt] }

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

// memberIndex is the inverse of member for a contributing layer q.
func (g *ReplicatedLU) memberIndex(k, q int) int {
	r := g.layer(k)
	switch {
	case q == r:
		return 0
	case q < r:
		return q + 1
	default:
		return q
	}
}

// lastIter returns the last iteration before k handled by layer q, or -1.
func (g *ReplicatedLU) lastIter(k, q int) int {
	if k-1 < q {
		return -1
	}
	return q + (k-1-q)/g.c*g.c
}

// gemmTask returns the update task of iteration l on tile (i, j): a
// canonical GEMMLU when l's layer is the tile's canonical layer, a partial
// GEMMPart into the layer's accumulator otherwise.
func (g *ReplicatedLU) gemmTask(l int, i, j int32) Task {
	k := int(i)
	if int(j) < k {
		k = int(j)
	}
	kind := GEMMPart
	if g.layer(l) == g.layer(k) {
		kind = GEMMLU
	}
	return Task{Kind: kind, L: int32(l), I: i, J: j}
}

// lastChild returns the largest binomial child of group member s in a group
// of n members (cluster.ReduceChildren schedule), or -1.
func lastChild(n, s int) int {
	kids := cluster.ReduceChildren(n, s)
	if len(kids) == 0 {
		return -1
	}
	return kids[len(kids)-1]
}

// ID implements Graph.
func (g *ReplicatedLU) ID(t Task) int {
	l := int(t.L)
	switch t.Kind {
	case GETRF:
		return l
	case TRSMCol:
		return g.trsmColBase + g.s1[l] + int(t.I) - l - 1
	case TRSMRow:
		return g.trsmRowBase + g.s1[l] + int(t.I) - l - 1
	case GEMMLU, GEMMPart:
		w := g.mt - 1 - l
		return g.gemmBase + g.s2[l] + (int(t.I)-l-1)*w + int(t.J) - l - 1
	case ReduceAdd:
		i, j := int(t.I), int(t.J)
		k := min(i, j)
		var pos int
		switch {
		case i == j:
			pos = 0
		case j == k:
			pos = i - k
		default:
			pos = (g.mt - k - 1) + (j - k)
		}
		return g.redBase + g.s3[k] + pos*g.nRed(k) + l - 1
	default:
		panic(fmt.Sprintf("dag: task %v is not a replicated-LU task", t))
	}
}

// TaskOf implements Graph.
func (g *ReplicatedLU) TaskOf(id int) Task {
	switch {
	case id < g.trsmColBase:
		return Task{Kind: GETRF, L: int32(id), I: int32(id), J: int32(id)}
	case id < g.trsmRowBase:
		l, off := locate(g.s1, id-g.trsmColBase)
		return Task{Kind: TRSMCol, L: int32(l), I: int32(l + 1 + off)}
	case id < g.gemmBase:
		l, off := locate(g.s1, id-g.trsmRowBase)
		return Task{Kind: TRSMRow, L: int32(l), I: int32(l + 1 + off)}
	case id < g.redBase:
		l, rel := locate(g.s2, id-g.gemmBase)
		w := g.mt - 1 - l
		return g.gemmTask(l, int32(l+1+rel/w), int32(l+1+rel%w))
	default:
		k, rel := locate(g.s3, id-g.redBase)
		nr := g.nRed(k)
		pos, s := rel/nr, rel%nr+1
		i, j := k, k
		switch {
		case pos == 0:
		case pos < g.mt-k:
			i = k + pos
		default:
			j = k + pos - (g.mt - k - 1)
		}
		return Task{Kind: ReduceAdd, L: int32(s), I: int32(i), J: int32(j)}
	}
}

// lastCanonicalWriter visits the task producing the final pre-panel version
// of canonical tile (i, j): the last root-level combine when the tile has a
// reduction group, the last canonical-layer GEMM when it does not (c = 1),
// or nothing when the tile is never updated (min(i,j) = 0).
func (g *ReplicatedLU) lastCanonicalWriter(i, j int, visit func(Task)) {
	k := min(i, j)
	if n := g.nRed(k) + 1; n > 1 {
		visit(Task{Kind: ReduceAdd, L: int32(lastChild(n, 0)), I: int32(i), J: int32(j)})
	} else if k > 0 {
		visit(Task{Kind: GEMMLU, L: int32(k - 1), I: int32(i), J: int32(j)})
	}
}

// Dependencies implements Graph.
func (g *ReplicatedLU) Dependencies(t Task, visit func(Task)) {
	l := int(t.L)
	switch t.Kind {
	case GETRF:
		g.lastCanonicalWriter(l, l, visit)
	case TRSMCol:
		visit(Task{Kind: GETRF, L: t.L, I: t.L, J: t.L})
		g.lastCanonicalWriter(int(t.I), l, visit)
	case TRSMRow:
		visit(Task{Kind: GETRF, L: t.L, I: t.L, J: t.L})
		g.lastCanonicalWriter(l, int(t.I), visit)
	case GEMMLU, GEMMPart:
		visit(Task{Kind: TRSMCol, L: t.L, I: t.I})
		visit(Task{Kind: TRSMRow, L: t.L, I: t.J})
		if l-g.c >= 0 {
			visit(g.gemmTask(l-g.c, t.I, t.J))
		}
	case ReduceAdd:
		s := l
		i, j := int(t.I), int(t.J)
		k := min(i, j)
		n := g.nRed(k) + 1
		// Input buffer (member s's accumulator): produced by s's last
		// absorbed child, or by the layer's final partial update.
		if lc := lastChild(n, s); lc > 0 {
			visit(Task{Kind: ReduceAdd, L: int32(lc), I: t.I, J: t.J})
		} else {
			visit(g.gemmTask(g.lastIter(k, g.member(k, s)), t.I, t.J))
		}
		// Output buffer (parent's accumulator, or the canonical tile):
		// serialized after the previous sibling's combine, or after the
		// parent's own final update.
		p := s - s&(-s)
		if step := s - p; step > 1 {
			visit(Task{Kind: ReduceAdd, L: int32(p + step/2), I: t.I, J: t.J})
		} else if p > 0 {
			visit(g.gemmTask(g.lastIter(k, g.member(k, p)), t.I, t.J))
		} else if li := g.lastIter(k, g.layer(k)); li >= 0 {
			visit(g.gemmTask(li, t.I, t.J))
		}
	}
}

// NumDependencies implements Graph.
func (g *ReplicatedLU) NumDependencies(t Task) int {
	l := int(t.L)
	switch t.Kind {
	case GETRF:
		if l > 0 {
			return 1
		}
		return 0
	case TRSMCol, TRSMRow:
		if l > 0 {
			return 2
		}
		return 1
	case GEMMLU, GEMMPart:
		if l-g.c >= 0 {
			return 3
		}
		return 2
	default: // ReduceAdd
		k := min(int(t.I), int(t.J))
		if l == 1 && k < g.c {
			// First combine into a canonical tile the canonical layer never
			// updated: the tile's initial contents are the base value.
			return 1
		}
		return 2
	}
}

// Successors implements Graph.
func (g *ReplicatedLU) Successors(t Task, visit func(Task)) {
	l := int(t.L)
	mt := g.mt
	switch t.Kind {
	case GETRF:
		for i := l + 1; i < mt; i++ {
			visit(Task{Kind: TRSMCol, L: t.L, I: int32(i)})
			visit(Task{Kind: TRSMRow, L: t.L, I: int32(i)})
		}
	case TRSMCol:
		for j := l + 1; j < mt; j++ {
			visit(g.gemmTask(l, t.I, int32(j)))
		}
	case TRSMRow:
		for i := l + 1; i < mt; i++ {
			visit(g.gemmTask(l, int32(i), t.I))
		}
	case GEMMLU, GEMMPart:
		i, j := t.I, t.J
		k := min(int(i), int(j))
		if l+g.c < k {
			visit(g.gemmTask(l+g.c, i, j))
			return
		}
		// Final update of this layer's buffer: hand it to the reduction
		// (or, unreplicated, directly to the tile's panel kernel).
		n := g.nRed(k) + 1
		s := g.memberIndex(k, g.layer(l))
		if s == 0 {
			if n > 1 {
				visit(Task{Kind: ReduceAdd, L: 1, I: i, J: j})
				return
			}
			k32 := int32(k)
			switch {
			case i == k32 && j == k32:
				visit(Task{Kind: GETRF, L: k32, I: k32, J: k32})
			case j == k32:
				visit(Task{Kind: TRSMCol, L: k32, I: i})
			default:
				visit(Task{Kind: TRSMRow, L: k32, I: j})
			}
			return
		}
		if s%2 == 0 && s+1 < n {
			// s's buffer next absorbs its first binomial child.
			visit(Task{Kind: ReduceAdd, L: int32(s + 1), I: i, J: j})
		} else {
			// Leaf member: the buffer ships straight to its parent.
			visit(Task{Kind: ReduceAdd, L: int32(s), I: i, J: j})
		}
	case ReduceAdd:
		s := l
		i, j := t.I, t.J
		k := min(int(i), int(j))
		n := g.nRed(k) + 1
		p := s - s&(-s)
		step := s - p
		if next := p + 2*step; next < n && (p == 0 || 2*step < p&(-p)) {
			visit(Task{Kind: ReduceAdd, L: int32(next), I: i, J: j})
			return
		}
		if p > 0 {
			visit(Task{Kind: ReduceAdd, L: int32(p), I: i, J: j})
			return
		}
		k32 := int32(k)
		switch {
		case i == k32 && j == k32:
			visit(Task{Kind: GETRF, L: k32, I: k32, J: k32})
		case j == k32:
			visit(Task{Kind: TRSMCol, L: k32, I: i})
		default:
			visit(Task{Kind: TRSMRow, L: k32, I: j})
		}
	}
}

// accTile returns the coordinates of layer q's accumulator for tile (i, j).
func (g *ReplicatedLU) accTile(q, i, j int) (int, int) {
	return i, (1+q)*g.mt + j
}

// OutputTile implements Graph.
func (g *ReplicatedLU) OutputTile(t Task) (int, int) {
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
	default: // ReduceAdd
		s := int(t.L)
		i, j := int(t.I), int(t.J)
		p := s - s&(-s)
		if p == 0 {
			return i, j
		}
		return g.accTile(g.member(min(i, j), p), i, j)
	}
}

// InputTiles implements Graph.
func (g *ReplicatedLU) InputTiles(t Task, visit func(i, j int)) {
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

// ReducePartial implements ReduceGraph: every accumulator-producing task is
// a partial; only the chain's last writer ever publishes, and its sole
// remote consumer is the combine on the parent member's node.
func (g *ReplicatedLU) ReducePartial(t Task) bool {
	_, j := g.OutputTile(t)
	return j >= g.mt
}

// Flops implements Graph.
func (g *ReplicatedLU) Flops(t Task, b int) float64 {
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

// TotalFlops implements Graph.
func (g *ReplicatedLU) TotalFlops(b int) float64 {
	mt := g.mt
	return float64(mt)*tile.FlopsGetrf(b) +
		2*float64(g.s1[mt])*tile.FlopsTrsm(b) +
		float64(g.s2[mt])*tile.FlopsGemm(b) +
		float64(g.s3[mt])*tile.FlopsGeadd(b)
}
