// Package dist implements the data-distribution schemes studied in the paper:
// the classical 2D Block-Cyclic distribution (2DBC), the paper's Generalized
// 2DBC (G-2DBC, Section IV), the Symmetric Block Cyclic distribution (SBC,
// from Beaumont et al., SC 2022, used as the symmetric baseline) and the
// Steiner-triple-system distribution (STS).
//
// Every scheme is a named pattern replicated cyclically over the tile matrix
// (Section III), so every constructor returns one of two types: a Cyclic for
// a fully defined pattern (2DBC, G-2DBC) or a DiagResolver for a square
// pattern whose undefined diagonal cells are resolved at replication time
// (SBC, STS and GCR&M, Section V).
//
// A Distribution maps matrix tiles to node identifiers; the task-based
// runtime and the performance simulator consume this interface and nothing
// else, exactly as Chameleon consumes a tile→node map.
package dist

import (
	"fmt"

	"anybc/internal/pattern"
)

// Distribution assigns every tile of a tiled matrix to one of P nodes,
// numbered 0..P-1. Implementations must be deterministic: Owner must always
// return the same node for the same tile.
type Distribution interface {
	// Name identifies the scheme and its parameters, e.g. "2DBC(5x4)".
	Name() string
	// Nodes returns P, the number of nodes the distribution uses.
	Nodes() int
	// Owner returns the node owning tile (i, j), with 0-based tile indices.
	Owner(i, j int) int
}

// PatternDistribution is implemented by distributions that are defined by
// cyclic replication of an explicit pattern; it exposes the pattern so that
// cost metrics can be computed.
type PatternDistribution interface {
	Distribution
	Pattern() *pattern.Pattern
}

// Cyclic is a Distribution defined by cyclic replication of a fully defined
// pattern: 2DBC, G-2DBC, a heterogeneous pattern or one loaded from a file.
// Patterns with undefined diagonal cells must be wrapped in a DiagResolver
// instead.
type Cyclic struct {
	name string
	p    *pattern.Pattern
	n    int
}

// NewCyclic wraps a fully defined pattern as a Distribution. It returns an
// error if the pattern has undefined cells or fails validation.
func NewCyclic(name string, p *pattern.Pattern) (*Cyclic, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dist: %s: %w", name, err)
	}
	if p.UndefinedCells() > 0 {
		return nil, fmt.Errorf("dist: %s: pattern has undefined cells; use NewDiagResolver", name)
	}
	return &Cyclic{name: name, p: p, n: p.NumNodes()}, nil
}

// Name implements Distribution.
func (c *Cyclic) Name() string { return c.name }

// Nodes implements Distribution.
func (c *Cyclic) Nodes() int { return c.n }

// Owner implements Distribution.
func (c *Cyclic) Owner(i, j int) int { return c.p.Owner(i, j) }

// Pattern implements PatternDistribution.
func (c *Cyclic) Pattern() *pattern.Pattern { return c.p }

// PatternOf returns d's underlying pattern when d is defined by cyclic
// pattern replication, comma-ok style. Library code should use this (or the
// TryCost accessors below) rather than the panicking wrappers: a
// Distribution is just a tile→node map and nothing obliges it to expose a
// pattern.
func PatternOf(d Distribution) (*pattern.Pattern, bool) {
	pd, ok := d.(PatternDistribution)
	if !ok {
		return nil, false
	}
	return pd.Pattern(), true
}

// TryCostLU returns the LU communication cost metric of d's pattern, with
// ok == false when d exposes no pattern to compute it from.
func TryCostLU(d Distribution) (float64, bool) {
	p, ok := PatternOf(d)
	if !ok {
		return 0, false
	}
	return p.CostLU(), true
}

// TryCostCholesky returns the Cholesky (colrow) communication cost metric of
// d's pattern, with ok == false when d exposes no pattern.
func TryCostCholesky(d Distribution) (float64, bool) {
	p, ok := PatternOf(d)
	if !ok {
		return 0, false
	}
	return p.CostCholesky(), true
}
