// Package experiments regenerates every table and figure of the paper's
// evaluation: the analytic cost studies (Figures 4, 9, 10 and Table I) come
// straight from the pattern mathematics, and the performance studies
// (Figures 1, 5, 6, 7, 11, 12) run the discrete-event simulator standing in
// for the paper's 44-node cluster. Each generator returns typed rows; the
// render helpers print the same series the paper plots, and Artifacts binds
// each committed file of results/ to the generator and configuration that
// write it.
package experiments

import (
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

// SimConfig parameterizes the performance experiments.
type SimConfig struct {
	// B is the tile size (paper: 500).
	B int
	// Ns are the matrix sizes swept in the per-figure experiments.
	Ns []int
	// ScalingN is the matrix size of the strong-scaling study (Figure 7).
	ScalingN int
	// Machine is the simulated platform.
	Machine simulate.Machine
}

// PaperSimConfig reproduces the paper's experimental scales: matrices from
// 50,000 to 200,000 (tile 500) and N = 200,000 for strong scaling. Full
// sweeps at this scale simulate tens of millions of tasks; use
// DefaultSimConfig for quicker runs with the same shapes.
func PaperSimConfig() SimConfig {
	return SimConfig{
		B:        500,
		Ns:       []int{50000, 100000, 150000, 200000},
		ScalingN: 200000,
		Machine:  simulate.PaperMachine(),
	}
}

// DefaultSimConfig scales the sweeps down by 2-4× (N up to 100,000) so a
// full reproduction finishes in minutes; the compute/communication shapes
// are preserved.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		B:        500,
		Ns:       []int{25000, 50000, 75000, 100000},
		ScalingN: 100000,
		Machine:  simulate.PaperMachine(),
	}
}

// freshSymmetric re-wraps a symmetric distribution with a fresh diagonal
// resolver so simulator runs do not share resolver state.
func freshSymmetric(d dist.Distribution) dist.Distribution {
	pd, ok := d.(dist.PatternDistribution)
	if !ok {
		return d
	}
	p := pd.Pattern()
	if p.UndefinedCells() == 0 {
		return d
	}
	return dist.NewDiagResolver(d.Name(), p.Clone())
}
