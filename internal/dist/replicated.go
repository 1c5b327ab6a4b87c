package dist

import "fmt"

// Replicated is the 2.5D-style replicated distribution (COnfLUX;
// Kwasniewski et al., arXiv:2010.05975): c copies of a base distribution's
// node grid are stacked as layers, and the factorization's summation
// dimension — the update iterations ℓ — is sliced round-robin over the
// layers (layer f(ℓ) = ℓ mod c). Each tile therefore has a deterministic
// owner *group* of c nodes, one per layer, all at the same base-grid
// coordinate; the extra c−1 copies trade memory for communication.
//
// Node numbering: layer q holds nodes q·Pb .. (q+1)·Pb−1, where Pb is the
// base node count. Tile coordinates follow the dag.ReplicatedLU extended
// space for an mt×mt tile matrix:
//
//	(i, j), j < mt        canonical tile — owned on the layer that runs its
//	                      panel iteration, f(min(i, j)), so panel broadcasts
//	                      stay inside one layer's base grid
//	(i, (1+q)·mt + j)     layer q's accumulator for tile (i, j), owned by
//	                      the layer-q copy of the base owner
type Replicated struct {
	base Distribution
	c    int
	mt   int
}

// NewReplicated stacks c layers of base over an mt×mt tile matrix. c = 1 is
// a single layer: owners then coincide with base's on every canonical tile.
func NewReplicated(base Distribution, c, mt int) *Replicated {
	if c <= 0 {
		panic(fmt.Sprintf("dist: invalid replication factor %d", c))
	}
	if mt <= 0 {
		panic(fmt.Sprintf("dist: invalid tile count %d", mt))
	}
	return &Replicated{base: base, c: c, mt: mt}
}

// Name implements Distribution.
func (d *Replicated) Name() string {
	return fmt.Sprintf("Replicated(c=%d, %s)", d.c, d.base.Name())
}

// Nodes implements Distribution: c layers of the base grid.
func (d *Replicated) Nodes() int { return d.c * d.base.Nodes() }

// Owner implements Distribution over the extended coordinate space.
func (d *Replicated) Owner(i, j int) int {
	if j < d.mt {
		k := i
		if j < k {
			k = j
		}
		return (k%d.c)*d.base.Nodes() + d.base.Owner(i, j)
	}
	q := j/d.mt - 1
	return q*d.base.Nodes() + d.base.Owner(i, j%d.mt)
}
