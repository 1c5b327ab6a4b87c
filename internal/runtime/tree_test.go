package runtime

import (
	"math/bits"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
)

// predictWireSplit walks the task graph under the owner-computes rule and
// returns the broadcast census for one run: the total logical messages and
// the number of hops the publishing owners themselves transmit under
// binomial-tree broadcast — ⌈log₂(k+1)⌉ per published tile with k > 1
// remote consumers, 1 for a point-to-point k = 1. The difference is the
// exact relay (forward) count the tree must produce.
func predictWireSplit(g dag.Graph, d dist.Distribution) (messages, ownerHops int64) {
	seen := map[int]bool{}
	dag.ForEachTask(g, func(t dag.Task) {
		oi, oj := g.OutputTile(t)
		src := d.Owner(oi, oj)
		for dst := range seen {
			delete(seen, dst)
		}
		g.Successors(t, func(s dag.Task) {
			si, sj := g.OutputTile(s)
			if dst := d.Owner(si, sj); dst != src {
				seen[dst] = true
			}
		})
		k := len(seen)
		if k == 0 {
			return
		}
		messages += int64(k)
		if k == 1 {
			ownerHops++
		} else {
			ownerHops += int64(bits.Len(uint(k))) // ⌈log₂(k+1)⌉ for k ≥ 1
		}
	})
	return messages, ownerHops
}

// TestTreeBroadcastG2DBC23 is the tentpole acceptance test on the paper's
// flagship case (LU, 23-node G-2DBC): tree broadcast must cut the owner's
// serialized NIC sends per published tile from k to ⌈log₂(k+1)⌉ — asserted
// exactly against the graph census — while the logical Eq (1)/(2) message
// matrix, the total wire-hop count, and the final factors stay identical to
// flat mode at every worker count.
func TestTreeBroadcastG2DBC23(t *testing.T) {
	const mt, b = 12, 4
	d := dist.NewG2DBC(23)
	g := dag.NewLU(mt)
	wantMsgs, wantOwnerHops := predictWireSplit(g, d)
	if wantOwnerHops >= wantMsgs {
		t.Fatalf("census finds no wide broadcasts (owner hops %d of %d messages); the case proves nothing",
			wantOwnerHops, wantMsgs)
	}

	flat, flatRep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 61), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := flatRep.Stats.TotalMessages(); got != wantMsgs {
		t.Fatalf("flat run sent %d logical messages, census predicts %d", got, wantMsgs)
	}
	if flatRep.Stats.TotalForwards() != 0 || flatRep.Stats.TotalHops() != wantMsgs {
		t.Fatalf("flat run wire ledger skewed: hops=%d forwards=%d, want %d/0",
			flatRep.Stats.TotalHops(), flatRep.Stats.TotalForwards(), wantMsgs)
	}

	for _, workers := range []int{1, 2, 8} {
		opt := Options{Workers: workers, Broadcast: cluster.BroadcastTree}
		fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 61), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		identicalLU(t, "tree mode", flat, fact, mt)
		s := rep.Stats
		// Logical accounting is transport-independent, per pair: the tree
		// must not disturb the quantities the paper's Eq (1)/(2) predict.
		for i := 0; i < s.P; i++ {
			for j := 0; j < s.P; j++ {
				if s.At(cluster.Messages, i, j) != flatRep.Stats.At(cluster.Messages, i, j) {
					t.Fatalf("workers=%d: pair %d->%d logical messages %d != flat %d",
						workers, i, j, s.At(cluster.Messages, i, j), flatRep.Stats.At(cluster.Messages, i, j))
				}
			}
		}
		// The wire moves the same hop count, split between owners and relays
		// exactly as the binomial census predicts: owners transmit
		// ⌈log₂(k+1)⌉ per broadcast instead of k.
		if s.TotalHops() != wantMsgs {
			t.Fatalf("workers=%d: %d wire hops, want %d (tree conserves hop count)",
				workers, s.TotalHops(), wantMsgs)
		}
		ownerHops := s.TotalHops() - s.TotalForwards()
		if ownerHops != wantOwnerHops {
			t.Fatalf("workers=%d: owners transmitted %d hops, census predicts Σ⌈log₂(k+1)⌉ = %d",
				workers, ownerHops, wantOwnerHops)
		}
		if s.TotalForwards() == 0 {
			t.Fatalf("workers=%d: no relayed hops; tree mode did not engage", workers)
		}
	}
}

// TestTreeBroadcastCholesky covers the second factorization kind at a
// smaller size: same conservation and census laws, so the tree transport is
// not LU-shaped by accident.
func TestTreeBroadcastCholesky(t *testing.T) {
	const mt, b = 10, 4
	d := dist.NewG2DBC(23)
	g := dag.NewCholesky(mt)
	wantMsgs, wantOwnerHops := predictWireSplit(g, d)

	flat, flatRep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 62), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fact, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 62),
		Options{Workers: 2, Broadcast: cluster.BroadcastTree})
	if err != nil {
		t.Fatal(err)
	}
	identicalCholesky(t, "tree mode", flat, fact, mt)
	if got := rep.Stats.TotalMessages(); got != wantMsgs || got != flatRep.Stats.TotalMessages() {
		t.Fatalf("logical messages %d (flat %d), census predicts %d",
			got, flatRep.Stats.TotalMessages(), wantMsgs)
	}
	if rep.Stats.TotalHops() != wantMsgs {
		t.Fatalf("%d wire hops, want %d", rep.Stats.TotalHops(), wantMsgs)
	}
	if ownerHops := rep.Stats.TotalHops() - rep.Stats.TotalForwards(); ownerHops != wantOwnerHops {
		t.Fatalf("owners transmitted %d hops, census predicts %d", ownerHops, wantOwnerHops)
	}
}
