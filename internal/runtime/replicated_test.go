package runtime

import (
	"fmt"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dist"
	"anybc/internal/matrix"
)

// TestReplicatedC1BitIdenticalToLU checks the degenerate case end to end:
// one layer runs the exact schedule of the unreplicated factorization, so
// the factors must match FactorLU bit for bit on the same base distribution.
func TestReplicatedC1BitIdenticalToLU(t *testing.T) {
	const mt, b = 8, 6
	for _, base := range []dist.Distribution{
		dist.NewTwoDBC(2, 3), dist.NewG2DBC(5), dist.NewG2DBC(16),
	} {
		want, _, err := FactorLU(mt, b, base, GenDiagDominant(mt, b, 5), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := FactorLUReplicated(mt, b, 1, base, GenDiagDominant(mt, b, 5), Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", base.Name(), err)
		}
		identicalLU(t, base.Name(), want, got, mt)
		if n := rep.Stats.Total(cluster.Reduces); n != 0 {
			t.Fatalf("%s: c=1 run shipped %d reduction partials, want 0", base.Name(), n)
		}
	}
}

// TestReplicatedLUMatchesSequential checks numerical agreement for real
// replication factors. Exact equality with the dense run is impossible for
// c > 1 — slicing the update sum over layers reassociates floating-point
// additions — so the factors are compared against the sequential
// factorization at a tolerance far tighter than any algorithmic error.
func TestReplicatedLUMatchesSequential(t *testing.T) {
	const mt, b = 8, 6
	want := matrix.NewDiagDominant(mt, b, 5)
	if err := matrix.FactorLU(want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{2, 3, 4} {
		for _, base := range []dist.Distribution{dist.NewTwoDBC(2, 2), dist.NewG2DBC(5)} {
			got, rep, err := FactorLUReplicated(mt, b, c, base, GenDiagDominant(mt, b, 5), Options{Workers: 2})
			if err != nil {
				t.Fatalf("c=%d %s: %v", c, base.Name(), err)
			}
			for i := 0; i < mt; i++ {
				for j := 0; j < mt; j++ {
					if !got.Tile(i, j).EqualApprox(want.Tile(i, j), 1e-10) {
						t.Fatalf("c=%d %s: tile (%d,%d) differs from sequential beyond 1e-10",
							c, base.Name(), i, j)
					}
				}
			}
			if c > 1 && rep.Stats.Total(cluster.Reduces) == 0 {
				t.Fatalf("c=%d %s: no reduction partials shipped", c, base.Name())
			}
		}
	}
}

// TestReplicatedDeterminism checks that a replicated run is exactly
// reproducible: repeats, worker counts and broadcast transports must all
// produce bit-identical factors (kernels run whole tasks and the reduce
// order is fixed by the graph, so no schedule choice can change FP order).
func TestReplicatedDeterminism(t *testing.T) {
	const mt, b, c = 8, 4, 2
	base := dist.NewG2DBC(6)
	ref, _, err := FactorLUReplicated(mt, b, c, base, GenDiagDominant(mt, b, 7), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label string
		opt   Options
	}{
		{"repeat", Options{Workers: 1}},
		{"workers=4", Options{Workers: 4}},
		{"tree broadcast", Options{Workers: 2, Broadcast: cluster.BroadcastTree}},
	}
	for _, tc := range cases {
		got, _, err := FactorLUReplicated(mt, b, c, base, GenDiagDominant(mt, b, 7), tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		identicalLU(t, tc.label, ref, got, mt)
	}
}

// TestReplicatedChaos runs the replicated factorization on a reordering
// network and requires bit-identical factors to the in-order replicated run
// and the same per-pair message counts: reduction shipments may overtake
// broadcasts, and each other, with no effect.
func TestReplicatedChaos(t *testing.T) {
	const mt, b, c = 8, 4, 2
	base := dist.NewG2DBC(5)
	ref, refRep, err := FactorLUReplicated(mt, b, c, base, GenDiagDominant(mt, b, 13), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{20260808, 424242} {
		opt, net := reordered(t, c*base.Nodes(), cluster.BroadcastFlat, seed, 2)
		got, rep, err := FactorLUReplicated(mt, b, c, base, GenDiagDominant(mt, b, 13), opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkReordered(t, net)
		identicalLU(t, "reordered run", ref, got, mt)
		sameLinks(t, fmt.Sprintf("seed %d", seed), refRep, rep)
	}
}
