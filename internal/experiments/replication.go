package experiments

import (
	"errors"
	"fmt"
	"io"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/lowerbound"
	"anybc/internal/simulate"
)

// ReplicationPoint is one row of the replication (2.5D) memory-for-
// communication study: a replicated LU run on a fixed total of P nodes at
// one replication factor c, measured by the simulator's exact byte
// accounting and compared against the memory-parameterized COnfLUX lower
// bound.
type ReplicationPoint struct {
	// P is the total node count, c layers × the G-2DBC(P/c) base grid.
	P int
	// MT is the matrix side in tiles.
	MT int
	// C is the replication factor (1 = the unreplicated G-2DBC(P) baseline).
	C int
	// ReduceBytes is the volume shipping reduction partials between layers.
	ReduceBytes int64
	// RecvMean is the mean per-node received bytes — the paper-facing
	// metric: replication must lower what each node's incoming NIC carries.
	RecvMean float64
	// BoundBytes is the memory-parameterized per-node lower bound
	// lowerbound.LUPerNodeRepl for this configuration, in bytes.
	BoundBytes float64
	// RatioToBound is RecvMean/BoundBytes — how far the measured volume sits
	// above the bound (≥ 1: no scheme beats a lower bound).
	RatioToBound float64
	// Makespan is the simulated wall-clock seconds.
	Makespan float64
}

// ReplicationSweep runs the replicated LU communication study at a fixed
// total of P nodes: an mt×mt tile matrix on c layers of a G-2DBC(P/c) grid
// for each c in cs (each must divide P), measured with the simulator's exact
// accounting under the flat (point-to-point) transport. Every point's
// per-node received volume is compared to the memory-parameterized COnfLUX
// bound (2/3)·m²/√(c·P) − m²/P: replication spends the c-fold memory on
// less traffic per node, and pays for it in reduction shipments and in a
// base grid c times smaller.
func ReplicationSweep(cfg SimConfig, P, mt int, cs []int) ([]ReplicationPoint, error) {
	m := float64(mt * cfg.B)
	var out []ReplicationPoint
	for _, c := range cs {
		if c < 1 || P%c != 0 {
			return nil, fmt.Errorf("experiments: replication factor %d does not divide P = %d", c, P)
		}
		g := dag.NewReplicatedLU(mt, c)
		d := dist.NewReplicated(dist.NewG2DBC(P/c), c, mt)
		res, err := simulate.Run(g, cfg.B, d, cfg.Machine, simulate.Options{})
		if err != nil {
			return nil, err
		}
		var sum int64
		for _, v := range res.RecvBytes {
			sum += v
		}
		mean := float64(sum) / float64(P)
		bound := 8 * lowerbound.LUPerNodeRepl(m, P, c)
		out = append(out, ReplicationPoint{
			P: P, MT: mt, C: c, ReduceBytes: res.ReduceBytes, RecvMean: mean,
			BoundBytes: bound, RatioToBound: mean / bound, Makespan: res.Makespan,
		})
	}
	return out, nil
}

// replicationCases are the (P, mt) pairs of results/replication.txt, each
// swept over c ∈ replicationCs: from 64 nodes, past the paper's 44, to 1024,
// where c = 2 first shortens the makespan.
var (
	replicationCases = []struct{ p, mt int }{
		{64, 32}, {64, 64}, {256, 64}, {256, 128}, {1024, 64}, {1024, 128}, {1024, 256},
	}
	replicationCs = []int{1, 2, 4}
)

// replicationSampled reports whether tier-1 recomputes the (P, mt) pair: every
// P ≤ 256 pair, where c = 2 loses on makespan, and (1024, 128), the smallest
// where it wins (the sample takes ≈ 0.6 s on a 2-vCPU box, the file ≈ 4.3 s).
func replicationSampled(p, mt int) bool { return p <= 256 || (p == 1024 && mt == 128) }

// renderReplication returns the renderer of results/replication.txt, one row
// per (P, mt, c), restricted to the (P, mt) pairs keep selects. The pairs
// run through inParallel, each its sweep over c in turn.
func renderReplication(keep func(p, mt int) bool) func(io.Writer) error {
	return func(w io.Writer) error {
		cfg := SimConfig{B: 500, Machine: simulate.PaperMachine()}
		var cases []struct{ p, mt int }
		for _, rc := range replicationCases {
			if keep(rc.p, rc.mt) {
				cases = append(cases, rc)
			}
		}
		rows := make([][]ReplicationPoint, len(cases))
		errs := make([]error, len(cases))
		inParallel(len(cases), func(i int) {
			rows[i], errs[i] = ReplicationSweep(cfg, cases[i].p, cases[i].mt, replicationCs)
		})
		if err := errors.Join(errs...); err != nil {
			return err
		}
		fmt.Fprintf(w, "replication at a fixed node count: P nodes as c layers of G-2DBC(P/c), tile %d\n", cfg.B)
		fmt.Fprintf(w, "%5s %4s %2s %5s %14s %16s %10s %6s %12s\n",
			"P", "mt", "c", "base", "recv/node (MB)", "reduce/node (MB)", "bound (MB)", "ratio", "makespan (s)")
		for _, pts := range rows {
			for _, p := range pts {
				fmt.Fprintf(w, "%5d %4d %2d %5d %14.1f %16.1f %10.1f %6.3f %12.3f\n",
					p.P, p.MT, p.C, p.P/p.C, p.RecvMean/1e6, float64(p.ReduceBytes)/float64(p.P)/1e6,
					p.BoundBytes/1e6, p.RatioToBound, p.Makespan)
			}
		}
		return nil
	}
}
