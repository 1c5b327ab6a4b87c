package experiments

import (
	"fmt"
	"io"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/lowerbound"
	"anybc/internal/simulate"
)

// ReplicationPoint is one row of the replication (2.5D) memory-for-
// communication sweep: a replicated LU run at one replication factor c,
// measured by the simulator's exact byte accounting and compared against the
// memory-parameterized COnfLUX lower bound.
type ReplicationPoint struct {
	// C is the replication factor (1 = the unreplicated G-2DBC baseline).
	C int
	// Nodes is the total node count, c layers × the base grid.
	Nodes int
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

// ReplicationSweep runs the replicated LU communication study: an mt×mt tile
// matrix on c layers of a G-2DBC(baseP) grid for each c in cs, measured with
// the simulator's exact accounting under the flat (point-to-point) transport.
// Every point's per-node received volume is compared to the
// memory-parameterized COnfLUX bound (2/3)·m²/√(c·Ptotal) − m²/Ptotal, with
// Ptotal = c·baseP: each doubling of memory should buy ~√2 less traffic per
// node until the grid is too small to amortize the reduction shipments.
func ReplicationSweep(cfg SimConfig, baseP, mt int, cs []int) ([]ReplicationPoint, error) {
	base := dist.NewG2DBC(baseP)
	m := float64(mt * cfg.B)
	var out []ReplicationPoint
	for _, c := range cs {
		if c < 1 {
			return nil, fmt.Errorf("experiments: invalid replication factor %d", c)
		}
		g := dag.NewReplicatedLU(mt, c)
		d := dist.NewReplicated(base, c, mt)
		res, err := simulate.Run(g, cfg.B, d, cfg.Machine, simulate.Options{})
		if err != nil {
			return nil, err
		}
		var sum int64
		for _, v := range res.RecvBytes {
			sum += v
		}
		mean := float64(sum) / float64(d.Nodes())
		bound := 8 * lowerbound.LUPerNodeRepl(m, d.Nodes(), c)
		out = append(out, ReplicationPoint{
			C: c, Nodes: d.Nodes(), ReduceBytes: res.ReduceBytes, RecvMean: mean,
			BoundBytes: bound, RatioToBound: mean / bound, Makespan: res.Makespan,
		})
	}
	return out, nil
}

// PinnedReplicationCase is the regression-pinned configuration of the
// replication study (results/replication.txt, and the 25 % gate of
// TestReplicationReducesPerNodeVolume): a 16,000×16,000 matrix
// (32×32 tiles of 500) on a G-2DBC(16) base grid — the same 16-node scale as
// the paper-pinned studies — swept over c ∈ {1, 2, 4}.
func PinnedReplicationCase() (cfg SimConfig, baseP, mt int, cs []int) {
	cfg = SimConfig{B: 500, Machine: simulate.PaperMachine()}
	return cfg, 16, 32, []int{1, 2, 4}
}

// renderReplication writes results/replication.txt: the pinned sweep, one row
// per replication factor, and the c = 2 saving the test gates.
func renderReplication(w io.Writer) error {
	cfg, baseP, mt, cs := PinnedReplicationCase()
	pts, err := ReplicationSweep(cfg, baseP, mt, cs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replication sweep: N=%d, tile %d, base G-2DBC(%d)\n", mt*cfg.B, cfg.B, baseP)
	fmt.Fprintf(w, "%4s %6s %14s %14s %14s %8s %12s\n", "c", "nodes", "recv/node (MB)", "reduce (MB)", "bound (MB)", "ratio", "makespan (s)")
	for _, p := range pts {
		fmt.Fprintf(w, "%4d %6d %14.1f %14.1f %14.1f %8.3f %12.3f\n",
			p.C, p.Nodes, p.RecvMean/1e6, float64(p.ReduceBytes)/1e6, p.BoundBytes/1e6, p.RatioToBound, p.Makespan)
	}
	saving := 1 - pts[1].RecvMean/pts[0].RecvMean
	fmt.Fprintf(w, "c=2 per-node received volume: %.1f%% below the c=1 baseline (gate: >= 25%%)\n", 100*saving)
	return nil
}
