package pattern

import "fmt"

// distinctCounter counts distinct defined nodes, using mark as a seen-marker
// keyed by node id (reset lazily via epoch).
type distinctCounter struct {
	mark  []int
	epoch int
}

func newDistinctCounter(P int) *distinctCounter {
	return &distinctCounter{mark: make([]int, P)}
}

func (d *distinctCounter) reset() { d.epoch++ }

func (d *distinctCounter) add(node int) bool {
	if node == Undefined {
		return false
	}
	if d.mark[node] == d.epoch {
		return false
	}
	d.mark[node] = d.epoch
	return true
}

// RowDistincts returns all x_i in one pass.
func (p *Pattern) RowDistincts() []int {
	d := newDistinctCounter(p.NumNodes())
	out := make([]int, p.rows)
	for i := 0; i < p.rows; i++ {
		d.reset()
		for j := 0; j < p.cols; j++ {
			if d.add(p.At(i, j)) {
				out[i]++
			}
		}
	}
	return out
}

// ColDistincts returns all y_j in one pass.
func (p *Pattern) ColDistincts() []int {
	d := newDistinctCounter(p.NumNodes())
	out := make([]int, p.cols)
	for j := 0; j < p.cols; j++ {
		d.reset()
		for i := 0; i < p.rows; i++ {
			if d.add(p.At(i, j)) {
				out[j]++
			}
		}
	}
	return out
}

// ColrowDistincts returns all z_i in one pass; the pattern must be square.
func (p *Pattern) ColrowDistincts() []int {
	if !p.Square() {
		panic("pattern: ColrowDistincts requires a square pattern")
	}
	d := newDistinctCounter(p.NumNodes())
	out := make([]int, p.rows)
	for i := 0; i < p.rows; i++ {
		d.reset()
		for j := 0; j < p.cols; j++ {
			if d.add(p.At(i, j)) {
				out[i]++
			}
		}
		for k := 0; k < p.rows; k++ {
			if d.add(p.At(k, i)) {
				out[i]++
			}
		}
	}
	return out
}

func mean(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// AvgRowDistinct returns x̄, the average over rows of the distinct-node count.
func (p *Pattern) AvgRowDistinct() float64 { return mean(p.RowDistincts()) }

// AvgColDistinct returns ȳ, the average over columns of the distinct-node count.
func (p *Pattern) AvgColDistinct() float64 { return mean(p.ColDistincts()) }

// AvgColrowDistinct returns z̄, the average over colrows of the distinct-node
// count; the pattern must be square.
func (p *Pattern) AvgColrowDistinct() float64 { return mean(p.ColrowDistincts()) }

// CostLU returns the paper's communication cost metric for LU factorization,
// T(G) = x̄ + ȳ (Section III-C). The total LU communication volume is
// m(m+1)/2 · (T(G) − 2) for an m×m tile matrix (Equation 1).
func (p *Pattern) CostLU() float64 {
	return p.AvgRowDistinct() + p.AvgColDistinct()
}

// CostCholesky returns the communication cost metric for Cholesky
// factorization. For a square pattern it is T(G) = z̄ exactly (Equation 2).
// For a non-square pattern, a colrow of the matrix meets every pattern row and
// every pattern column, so the distinct-node count on a matrix colrow
// approaches x̄ + ȳ − 1 (the paper uses exactly this value when comparing
// 2DBC and G-2DBC on symmetric problems: "the symmetric cost is equal to the
// non-symmetric cost minus 1").
func (p *Pattern) CostCholesky() float64 {
	if p.Square() {
		return p.AvgColrowDistinct()
	}
	return p.CostLU() - 1
}

// CommVolumeLU returns the predicted total number of tile transfers for the LU
// factorization of an mt×mt tile matrix distributed with this pattern
// (Equation 1): m(m+1)/2 · (x̄ + ȳ − 2). The estimate ignores edge effects in
// the last max(r,c) iterations, as in the paper.
func (p *Pattern) CommVolumeLU(mt int) float64 {
	return float64(mt) * float64(mt+1) / 2 * (p.CostLU() - 2)
}

// CommVolumeCholesky returns the predicted total number of tile transfers for
// the Cholesky factorization of an mt×mt tile matrix (Equation 2):
// m(m+1)/2 · (z̄ − 1).
func (p *Pattern) CommVolumeCholesky(mt int) float64 {
	return float64(mt) * float64(mt+1) / 2 * (p.CostCholesky() - 1)
}

// Dims returns the pattern dimensions formatted as in the paper's Table I,
// e.g. "20x23".
func (p *Pattern) Dims() string {
	return fmt.Sprintf("%dx%d", p.rows, p.cols)
}
