package dist

import (
	"fmt"
	"sync"

	"anybc/internal/pattern"
)

// DiagResolver turns a square pattern with Undefined diagonal cells into a
// concrete symmetric Distribution. It implements the replication-time rule of
// Section V (generalizing extended SBC): every matrix tile landing on an
// undefined diagonal cell is assigned greedily to the least-loaded node among
// the nodes present on that cell's colrow. Because every candidate is already
// on the colrow, the assignment never increases the communication cost, while
// it repairs the load imbalance that a static diagonal assignment would cause.
//
// The greedy order is canonical (tiles processed in increasing extent, then
// row-major), so the resulting distribution is deterministic regardless of the
// order in which Owner is called. Only the lower triangle (i ≥ j) is
// meaningful for symmetric kernels; upper-triangle queries are mirrored.
type DiagResolver struct {
	name string
	pat  *pattern.Pattern
	r    int

	// colrowNodes[d] lists the distinct nodes present on pattern colrow d,
	// sorted by node id.
	colrowNodes [][]int

	mu       sync.Mutex
	extent   int            // tiles processed: all (i, j) with max(i,j) < extent
	load     []int64        // tiles owned per node within the processed extent
	assigned map[[2]int]int // resolved owners of diagonal-cell tiles (i >= j)
}

// NewDiagResolver wraps a square pattern whose only Undefined cells are on
// its diagonal. Patterns with no Undefined cells are also accepted (the
// resolver then adds nothing).
func NewDiagResolver(name string, pat *pattern.Pattern) *DiagResolver {
	if err := pat.Validate(); err != nil {
		panic(fmt.Sprintf("dist: %s: %v", name, err))
	}
	if !pat.Square() {
		panic(fmt.Sprintf("dist: %s: diagonal resolution needs a square pattern", name))
	}
	r := pat.Rows()
	P := pat.NumNodes()
	res := &DiagResolver{
		name:        name,
		pat:         pat,
		r:           r,
		colrowNodes: make([][]int, r),
		load:        make([]int64, P),
		assigned:    make(map[[2]int]int),
	}
	for d := 0; d < r; d++ {
		seen := make([]bool, P)
		for k := 0; k < r; k++ {
			for _, v := range []int{pat.At(d, k), pat.At(k, d)} {
				if v != pattern.Undefined && !seen[v] {
					seen[v] = true
					res.colrowNodes[d] = append(res.colrowNodes[d], v)
				}
			}
		}
		if pat.At(d, d) == pattern.Undefined && len(res.colrowNodes[d]) == 0 {
			panic(fmt.Sprintf("dist: %s: colrow %d has an undefined diagonal and no nodes", name, d))
		}
	}
	return res
}

// Name returns the identifier supplied at construction.
func (d *DiagResolver) Name() string { return d.name }

// Nodes implements Distribution.
func (d *DiagResolver) Nodes() int { return d.pat.NumNodes() }

// Pattern returns the wrapped (possibly incomplete) pattern.
func (d *DiagResolver) Pattern() *pattern.Pattern { return d.pat }

// Owner implements Distribution for the symmetric lower triangle; queries
// with i < j are mirrored to (j, i).
func (d *DiagResolver) Owner(i, j int) int {
	if i < j {
		i, j = j, i
	}
	ci, cj := i%d.r, j%d.r
	if v := d.pat.At(ci, cj); v != pattern.Undefined {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.grow(i + 1)
	return d.assigned[[2]int{i, j}]
}

// grow processes lower-triangle tiles in canonical order until all tiles with
// max coordinate < extent are assigned, updating per-node loads and greedily
// resolving diagonal-cell tiles.
func (d *DiagResolver) grow(extent int) {
	for t := d.extent; t < extent; t++ {
		// New tiles when extent grows from t to t+1: row t, columns 0..t.
		for j := 0; j <= t; j++ {
			ci, cj := t%d.r, j%d.r
			v := d.pat.At(ci, cj)
			if v == pattern.Undefined {
				v = d.resolve(t, j, ci)
			}
			d.load[v]++
		}
	}
	if extent > d.extent {
		d.extent = extent
	}
}

// resolve picks the least-loaded node on colrow cd for tile (i, j) (ties
// broken by lowest node id) and records the assignment.
func (d *DiagResolver) resolve(i, j, cd int) int {
	best := d.colrowNodes[cd][0]
	for _, n := range d.colrowNodes[cd][1:] {
		if d.load[n] < d.load[best] {
			best = n
		}
	}
	d.assigned[[2]int{i, j}] = best
	return best
}
