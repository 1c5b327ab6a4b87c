// Package pattern implements the distribution-pattern abstraction of
// Beaumont et al., "Data Distribution Schemes for Dense Linear Algebra
// Factorizations on Any Number of Nodes" (IPDPS 2023), Section III.
//
// A pattern is an r×c grid of node identifiers. A matrix split into tiles is
// distributed by replicating the pattern cyclically: tile (i, j) is owned by
// the node in cell (i mod r, j mod c). The paper uses "tile" for a position in
// the matrix and "cell" for a position in a pattern; this package follows that
// vocabulary.
//
// Diagonal cells of a square pattern may be left Undefined. Such cells are
// assigned only when the pattern is replicated onto a concrete matrix (to the
// least-loaded node of their colrow), generalizing the extended Symmetric
// Block Cyclic distribution; see package dist for the replication-time
// resolver. All metrics in this package treat an undefined diagonal cell as
// owned by a node that is already present on its colrow, which is exactly the
// property that makes the dynamic assignment free in terms of communication.
package pattern

import (
	"errors"
	"fmt"
	"strings"
)

// Undefined marks a pattern cell whose owner is chosen at replication time.
// Only diagonal cells of square patterns may be Undefined.
const Undefined = -1

// Pattern is a rectangular grid of node identifiers in [0, P), with optional
// Undefined diagonal cells. The zero value is an empty pattern; use New to
// build a usable one.
type Pattern struct {
	rows, cols int
	cells      []int32 // row-major; Undefined or node id
}

// New returns a rows×cols pattern with every cell Undefined.
func New(rows, cols int) *Pattern {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("pattern: invalid dimensions %dx%d", rows, cols))
	}
	cells := make([]int32, rows*cols)
	for i := range cells {
		cells[i] = Undefined
	}
	return &Pattern{rows: rows, cols: cols, cells: cells}
}

// Rows returns the number of pattern rows (r).
func (p *Pattern) Rows() int { return p.rows }

// Cols returns the number of pattern columns (c).
func (p *Pattern) Cols() int { return p.cols }

// Square reports whether the pattern has as many rows as columns, which is
// required for the symmetric (colrow) cost to be well defined.
func (p *Pattern) Square() bool { return p.rows == p.cols }

// At returns the node in cell (i, j), or Undefined.
func (p *Pattern) At(i, j int) int {
	return int(p.cells[i*p.cols+j])
}

// Set stores node (or Undefined) in cell (i, j).
func (p *Pattern) Set(i, j, node int) {
	p.cells[i*p.cols+j] = int32(node)
}

// Owner returns the owner of matrix tile (i, j) under cyclic replication of
// the pattern. It returns Undefined for tiles that land on an undefined
// diagonal cell; callers that use undefined diagonals must resolve those
// through a replication-time assigner (see dist.DiagResolver).
func (p *Pattern) Owner(i, j int) int {
	return p.At(i%p.rows, j%p.cols)
}

// Clone returns a deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{rows: p.rows, cols: p.cols, cells: make([]int32, len(p.cells))}
	copy(q.cells, p.cells)
	return q
}

// NumNodes returns one more than the largest node id present, i.e. the node
// count P under the convention that node ids are 0..P-1. Undefined cells are
// ignored. It returns 0 for a fully undefined pattern.
func (p *Pattern) NumNodes() int {
	max := int32(Undefined)
	for _, v := range p.cells {
		if v > max {
			max = v
		}
	}
	return int(max) + 1
}

// Counts returns the number of defined cells assigned to each node,
// indexed by node id up to NumNodes().
func (p *Pattern) Counts() []int {
	counts := make([]int, p.NumNodes())
	for _, v := range p.cells {
		if v != Undefined {
			counts[v]++
		}
	}
	return counts
}

// UndefinedCells returns the number of Undefined cells.
func (p *Pattern) UndefinedCells() int {
	n := 0
	for _, v := range p.cells {
		if v == Undefined {
			n++
		}
	}
	return n
}

// BalanceSpread returns the difference between the largest and smallest
// per-node defined-cell counts. A spread of 0 means perfectly balanced; the
// GCR&M guarantee is a spread of at most 1 before diagonal assignment.
func (p *Pattern) BalanceSpread() int {
	counts := p.Counts()
	if len(counts) == 0 {
		return 0
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return max - min
}

// Validate checks the structural invariants:
//   - every node id is in [0, P) where P = NumNodes(),
//   - every node id in [0, P) appears at least once,
//   - Undefined cells, if any, lie only on the diagonal of a square pattern.
func (p *Pattern) Validate() error {
	P := p.NumNodes()
	if P == 0 {
		return errors.New("pattern: no defined cells")
	}
	seen := make([]bool, P)
	for i := 0; i < p.rows; i++ {
		for j := 0; j < p.cols; j++ {
			v := p.At(i, j)
			if v == Undefined {
				if !p.Square() || i != j {
					return fmt.Errorf("pattern: undefined non-diagonal cell (%d,%d)", i, j)
				}
				continue
			}
			if v < 0 || v >= P {
				return fmt.Errorf("pattern: cell (%d,%d) holds invalid node %d", i, j, v)
			}
			seen[v] = true
		}
	}
	for n, ok := range seen {
		if !ok {
			return fmt.Errorf("pattern: node %d never appears (P=%d)", n, P)
		}
	}
	return nil
}

// String renders the pattern as an aligned grid, with "." for Undefined.
func (p *Pattern) String() string {
	width := 1
	if n := p.NumNodes(); n > 10 {
		width = len(fmt.Sprint(n - 1))
	}
	var b strings.Builder
	for i := 0; i < p.rows; i++ {
		for j := 0; j < p.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			if v := p.At(i, j); v == Undefined {
				fmt.Fprintf(&b, "%*s", width, ".")
			} else {
				fmt.Fprintf(&b, "%*d", width, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
