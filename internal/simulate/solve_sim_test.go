package simulate

import (
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
)

// TestSolveGraphSimulation runs the factor-and-solve graphs through the
// simulator, checking sized messages and per-node traffic accounting.
func TestSolveGraphSimulation(t *testing.T) {
	const mt, b, nrhs = 12, 100, 4
	m := Machine{Workers: 2, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 1e-6}
	for _, g := range []dag.Graph{dag.NewLUSolve(mt, nrhs), dag.NewCholeskySolve(mt, nrhs)} {
		d := solveWrap{Distribution: dist.NewTwoDBC(2, 3), mt: mt}
		res, err := Run(g, b, d, m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if res.Messages == 0 {
			t.Fatalf("%s: no communication", g.Name())
		}
		// Messages are a mix of 8·b² matrix tiles and 8·b·nrhs RHS tiles,
		// so total bytes must be strictly between the two uniform extremes.
		if res.Bytes >= res.Messages*int64(8*b*b) {
			t.Errorf("%s: bytes %d not below uniform-matrix bound", g.Name(), res.Bytes)
		}
		if res.Bytes <= res.Messages*int64(8*b*nrhs) {
			t.Errorf("%s: bytes %d not above uniform-RHS bound", g.Name(), res.Bytes)
		}
		var sent, recv int64
		for n := range res.SentBytes {
			sent += res.SentBytes[n]
			recv += res.RecvBytes[n]
		}
		if sent != res.Bytes || recv != res.Bytes {
			t.Errorf("%s: per-node traffic %d/%d does not sum to total %d",
				g.Name(), sent, recv, res.Bytes)
		}
		// The solve phase must not dominate: makespan within 2x of the
		// factorization-only simulation.
		var base dag.Graph
		if g.Name() == "LU+solve" {
			base = dag.NewLU(mt)
		} else {
			base = dag.NewCholesky(mt)
		}
		baseRes, err := Run(base, b, dist.NewTwoDBC(2, 3), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > 2*baseRes.Makespan {
			t.Errorf("%s: makespan %v more than doubles factorization %v",
				g.Name(), res.Makespan, baseRes.Makespan)
		}
	}
}

// solveWrap mirrors runtime's RHS tile placement for simulation purposes.
type solveWrap struct {
	dist.Distribution
	mt int
}

func (s solveWrap) Owner(i, j int) int {
	if j >= s.mt {
		return s.Distribution.Owner(i, i)
	}
	return s.Distribution.Owner(i, j)
}

// TestMessagesCarryTheProgramsTileSizes: every message is as large as the
// program says the tile it carries is — 8·b² bytes for a matrix tile, 8·b·nrhs
// for a right-hand-side tile of the factor-and-solve graph.
func TestMessagesCarryTheProgramsTileSizes(t *testing.T) {
	const mt, b, nrhs = 6, 10, 2
	g := dag.NewLUSolve(mt, nrhs)
	d := solveWrap{Distribution: dist.NewTwoDBC(2, 2), mt: mt}
	m := Machine{Workers: 1, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 0}
	res, err := Run(g, b, d, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	dag.ForEachTask(g, func(task dag.Task) {
		src := d.Owner(g.OutputTile(task))
		dsts := map[int]bool{}
		g.Successors(task, func(s dag.Task) {
			if o := d.Owner(g.OutputTile(s)); o != src {
				dsts[o] = true
			}
		})
		size := int64(8 * b * b)
		if _, j := g.OutputTile(task); j >= mt {
			size = 8 * b * nrhs
		}
		want += size * int64(len(dsts))
	})
	if res.Bytes != want {
		t.Errorf("%d bytes on the wire for %d messages, the program's tile sizes give %d", res.Bytes, res.Messages, want)
	}
}
