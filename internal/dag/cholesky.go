package dag

import (
	"fmt"
	"math"

	"anybc/internal/tile"
)

// Cholesky is the task graph of the right-looking tiled Cholesky
// factorization of the lower triangle of an mt×mt tile matrix:
//
//	for ℓ = 0..mt-1:
//	    POTRF(ℓ)
//	    TRSMChol(ℓ, i) for i > ℓ
//	    SYRK(ℓ, i) for i > ℓ
//	    GEMMChol(ℓ, i, j) for ℓ < j < i
type Cholesky struct {
	mt                           int
	trsmBase, syrkBase, gemmBase int
	s1                           []int // s1[l] = Σ_{k<l} (mt-1-k)
	s3                           []int // s3[l] = Σ_{k<l} C(mt-1-k, 2)
}

// NewCholesky builds the Cholesky task graph for an mt×mt tile matrix.
func NewCholesky(mt int) *Cholesky {
	if mt <= 0 {
		panic(fmt.Sprintf("dag: invalid tile count %d", mt))
	}
	g := &Cholesky{mt: mt, s1: make([]int, mt+1), s3: make([]int, mt+1)}
	for l := 0; l < mt; l++ {
		k := mt - 1 - l
		g.s1[l+1] = g.s1[l] + k
		g.s3[l+1] = g.s3[l] + k*(k-1)/2
	}
	g.trsmBase = mt
	g.syrkBase = g.trsmBase + g.s1[mt]
	g.gemmBase = g.syrkBase + g.s1[mt]
	return g
}

// Name implements Graph.
func (g *Cholesky) Name() string { return "Cholesky" }

// Program returns the factorization as a sequential task stream; like LU's,
// its closed forms are checked against what Build infers from it.
func (g *Cholesky) Program() Program {
	return Program{Name: g.Name(), Tiles: g.mt, Tasks: g.ForEachTask,
		OutputTile: g.OutputTile, InputTiles: g.InputTiles, Flops: g.Flops}
}

// ForEachTask visits the tasks in program order: per iteration the panel,
// then each trailing row's SYRK followed by its GEMMs.
func (g *Cholesky) ForEachTask(visit func(Task)) {
	for l := 0; l < g.mt; l++ {
		l32 := int32(l)
		visit(Task{Kind: POTRF, L: l32, I: l32, J: l32})
		for i := l + 1; i < g.mt; i++ {
			visit(Task{Kind: TRSMChol, L: l32, I: int32(i)})
		}
		for i := l + 1; i < g.mt; i++ {
			visit(Task{Kind: SYRK, L: l32, I: int32(i)})
			for j := l + 1; j < i; j++ {
				visit(Task{Kind: GEMMChol, L: l32, I: int32(i), J: int32(j)})
			}
		}
	}
}

// Tiles implements Graph.
func (g *Cholesky) Tiles() int { return g.mt }

// NumTasks implements Graph.
func (g *Cholesky) NumTasks() int { return g.gemmBase + g.s3[g.mt] }

// ID implements Graph.
func (g *Cholesky) ID(t Task) int {
	l := int(t.L)
	switch t.Kind {
	case POTRF:
		return l
	case TRSMChol:
		return g.trsmBase + g.s1[l] + int(t.I) - l - 1
	case SYRK:
		return g.syrkBase + g.s1[l] + int(t.I) - l - 1
	case GEMMChol:
		// Tasks at iteration l are ordered by i then j, i from l+2 up:
		// offset(i) = C(i-l-1, 2), then + (j-l-1).
		di := int(t.I) - l - 1
		return g.gemmBase + g.s3[l] + di*(di-1)/2 + int(t.J) - l - 1
	default:
		panic(fmt.Sprintf("dag: task %v is not a Cholesky task", t))
	}
}

// TaskOf implements Graph.
func (g *Cholesky) TaskOf(id int) Task {
	switch {
	case id < g.trsmBase:
		return Task{Kind: POTRF, L: int32(id), I: int32(id), J: int32(id)}
	case id < g.syrkBase:
		l, off := locate(g.s1, id-g.trsmBase)
		return Task{Kind: TRSMChol, L: int32(l), I: int32(l + 1 + off)}
	case id < g.gemmBase:
		l, off := locate(g.s1, id-g.syrkBase)
		return Task{Kind: SYRK, L: int32(l), I: int32(l + 1 + off)}
	default:
		l, off := locate(g.s3, id-g.gemmBase)
		// Find di with C(di,2) <= off < C(di+1,2): the root of the quadratic,
		// then a step either way for what rounding left.
		di := int((1 + math.Sqrt(float64(1+8*off))) / 2)
		for di*(di-1)/2 > off {
			di--
		}
		for (di+1)*di/2 <= off {
			di++
		}
		j := off - di*(di-1)/2
		return Task{Kind: GEMMChol, L: int32(l), I: int32(l + 1 + di), J: int32(l + 1 + j)}
	}
}

// Dependencies implements Graph.
func (g *Cholesky) Dependencies(t Task, visit func(Task)) {
	l := t.L
	switch t.Kind {
	case POTRF:
		if l > 0 {
			visit(Task{Kind: SYRK, L: l - 1, I: l})
		}
	case TRSMChol:
		visit(Task{Kind: POTRF, L: l, I: l, J: l})
		if l > 0 {
			visit(Task{Kind: GEMMChol, L: l - 1, I: t.I, J: l})
		}
	case SYRK:
		visit(Task{Kind: TRSMChol, L: l, I: t.I})
		if l > 0 {
			visit(Task{Kind: SYRK, L: l - 1, I: t.I})
		}
	case GEMMChol:
		visit(Task{Kind: TRSMChol, L: l, I: t.I})
		visit(Task{Kind: TRSMChol, L: l, I: t.J})
		if l > 0 {
			visit(Task{Kind: GEMMChol, L: l - 1, I: t.I, J: t.J})
		}
	}
}

// NumDependencies implements Graph.
func (g *Cholesky) NumDependencies(t Task) int {
	switch t.Kind {
	case POTRF:
		if t.L > 0 {
			return 1
		}
		return 0
	case TRSMChol, SYRK:
		if t.L > 0 {
			return 2
		}
		return 1
	default:
		if t.L > 0 {
			return 3
		}
		return 2
	}
}

// Successors implements Graph.
func (g *Cholesky) Successors(t Task, visit func(Task)) {
	l := int(t.L)
	mt := g.mt
	switch t.Kind {
	case POTRF:
		for i := l + 1; i < mt; i++ {
			visit(Task{Kind: TRSMChol, L: t.L, I: int32(i)})
		}
	case TRSMChol:
		i := int(t.I)
		visit(Task{Kind: SYRK, L: t.L, I: t.I})
		for j := l + 1; j < i; j++ {
			visit(Task{Kind: GEMMChol, L: t.L, I: t.I, J: int32(j)})
		}
		for i2 := i + 1; i2 < mt; i2++ {
			visit(Task{Kind: GEMMChol, L: t.L, I: int32(i2), J: t.I})
		}
	case SYRK:
		if int(t.I) == l+1 {
			visit(Task{Kind: POTRF, L: t.L + 1, I: t.I, J: t.I})
		} else {
			visit(Task{Kind: SYRK, L: t.L + 1, I: t.I})
		}
	case GEMMChol:
		if int(t.J) == l+1 {
			visit(Task{Kind: TRSMChol, L: t.L + 1, I: t.I})
		} else {
			visit(Task{Kind: GEMMChol, L: t.L + 1, I: t.I, J: t.J})
		}
	}
}

// OutputTile implements Graph.
func (g *Cholesky) OutputTile(t Task) (int, int) {
	switch t.Kind {
	case POTRF:
		return int(t.L), int(t.L)
	case TRSMChol:
		return int(t.I), int(t.L)
	case SYRK:
		return int(t.I), int(t.I)
	default:
		return int(t.I), int(t.J)
	}
}

// InputTiles implements Graph.
func (g *Cholesky) InputTiles(t Task, visit func(i, j int)) {
	l := int(t.L)
	switch t.Kind {
	case POTRF:
	case TRSMChol:
		visit(l, l)
	case SYRK:
		visit(int(t.I), l)
	case GEMMChol:
		visit(int(t.I), l)
		visit(int(t.J), l)
	}
}

// Flops implements Graph.
func (g *Cholesky) Flops(t Task, b int) float64 {
	switch t.Kind {
	case POTRF:
		return tile.FlopsPotrf(b)
	case TRSMChol:
		return tile.FlopsTrsm(b)
	case SYRK:
		return tile.FlopsSyrk(b)
	default:
		return tile.FlopsGemm(b)
	}
}

// TotalFlops implements Graph.
func (g *Cholesky) TotalFlops(b int) float64 {
	mt := g.mt
	return float64(mt)*tile.FlopsPotrf(b) +
		float64(g.s1[mt])*(tile.FlopsTrsm(b)+tile.FlopsSyrk(b)) +
		float64(g.s3[mt])*tile.FlopsGemm(b)
}
