package simulate

import (
	"math/bits"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
)

const kTree dag.Kind = 211

// starGraph is the broadcast stress DAG: task 0 writes tile (0, 0) and each
// of `consumers` successor tasks (ids 1..consumers) reads it and writes its
// own tile (id, 0) — one producer, every other node a consumer.
func starGraph(consumers int) dag.Graph {
	return dag.Build(dag.Program{
		Name:  "star",
		Tiles: consumers + 1,
		Tasks: func(_ int, submit func(dag.Task)) {
			for id := 0; id <= consumers; id++ {
				submit(dag.Task{Kind: kTree, I: int32(id)})
			}
		},
		OutputTile: func(t dag.Task) (int, int) { return int(t.I), 0 },
		InputTiles: func(t dag.Task, visit func(i, j int)) {
			if t.I > 0 {
				visit(0, 0)
			}
		},
		Flops: func(dag.Task, int) float64 { return 1 },
	})
}

// censusWireSplit predicts, from the graph and distribution alone, the
// logical message count and the number of hops the owners transmit under
// binomial-tree broadcast (⌈log₂(k+1)⌉ per tile published to k > 1 remote
// consumers, 1 when k = 1).
func censusWireSplit(g dag.Graph, d dist.Distribution) (messages, ownerHops int64) {
	dag.ForEachTask(g, func(t dag.Task) {
		oi, oj := g.OutputTile(t)
		src := d.Owner(oi, oj)
		seen := map[int]bool{}
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
			ownerHops += int64(bits.Len(uint(k)))
		}
	})
	return messages, ownerHops
}

// TestTreeBroadcastAccounting runs one LU case in both modes and checks the
// two-ledger contract: logical Messages/Bytes are identical, the wire moves
// the same total hop count either way, and tree mode splits it into the
// census-predicted owner hops plus relays.
func TestTreeBroadcastAccounting(t *testing.T) {
	g := dag.NewLU(12)
	d := dist.NewG2DBC(23)
	m := testMachine()
	wantMsgs, wantOwnerHops := censusWireSplit(g, d)

	flat, err := Run(g, 16, d, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Run(g, 16, d, m, Options{Broadcast: cluster.BroadcastTree})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Messages != tree.Messages || flat.Bytes != tree.Bytes {
		t.Fatalf("logical ledger depends on transport: flat %d/%d, tree %d/%d",
			flat.Messages, flat.Bytes, tree.Messages, tree.Bytes)
	}
	if flat.Messages != wantMsgs {
		t.Fatalf("%d logical messages, census predicts %d", flat.Messages, wantMsgs)
	}
	if flat.Hops != flat.Messages || flat.Forwards != 0 {
		t.Fatalf("flat wire ledger: hops=%d forwards=%d, want %d/0",
			flat.Hops, flat.Forwards, flat.Messages)
	}
	if tree.Hops != wantMsgs {
		t.Fatalf("tree moved %d hops, want %d (same data, redistributed transmitters)",
			tree.Hops, wantMsgs)
	}
	if ownerHops := tree.Hops - tree.Forwards; ownerHops != wantOwnerHops {
		t.Fatalf("owners transmitted %d hops, census predicts Σ⌈log₂(k+1)⌉ = %d",
			ownerHops, wantOwnerHops)
	}
	if tree.Forwards == 0 {
		t.Fatal("no relays on a 23-node broadcast-heavy case; tree mode did not engage")
	}
}

// TestTreePipelinesWideBroadcast pins the performance property the tree
// exists for: with one producer whose output every other node consumes, flat
// mode serializes P−1 transfer times on the root's NIC while the tree
// pipelines across recipients' NICs in ~⌈log₂P⌉ rounds — strictly faster
// once communication dominates.
func TestTreePipelinesWideBroadcast(t *testing.T) {
	// Star graph: task 0 on node 0 feeds one consumer task on each node.
	const p = 16
	g := starGraph(p - 1)
	d := litDist{p: p, owner: func(i, j int) int { return i }}
	// Communication-bound: tiny flops, fat messages, zero latency.
	m := Machine{Workers: 1, FlopsPerWorker: 1e12, LinkBandwidth: 1e9, Latency: 0}
	const b = 250 // 8·b² = 500 kB per tile → 0.5 ms per hop transfer

	flat, err := Run(g, b, d, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Run(g, b, d, m, Options{Broadcast: cluster.BroadcastTree})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Messages != int64(p-1) || tree.Messages != int64(p-1) {
		t.Fatalf("star should send %d messages, got flat %d tree %d",
			p-1, flat.Messages, tree.Messages)
	}
	// Flat: the root's NIC serializes p−1 transfers, so the last consumer
	// waits ~(p−1)·T. Tree: the longest chain is strictly shorter for p = 16.
	if tree.Makespan >= flat.Makespan {
		t.Fatalf("tree makespan %v not below flat %v on a wide broadcast",
			tree.Makespan, flat.Makespan)
	}
	transfer := float64(8*b*b) / m.LinkBandwidth
	if lower := float64(p-1) * transfer; flat.Makespan < lower {
		t.Fatalf("flat makespan %v below the root's serialized NIC time %v", flat.Makespan, lower)
	}
	// Relays are store-and-forward, so each hop costs one sender-NIC pass
	// plus one receiver-NIC pass. The critical chain of the binomial 16-tree
	// is root→8→12→14→15: the root's 4th send completes at 4T, each relay
	// then receives (+T) and works off its earlier children before the chain
	// hop departs — 14 transfer times end to end, against the flat root's
	// 16 (15 serialized sends + the last receiver pass). The gap widens with
	// p; at this size the pinned win is exact.
	if upper := 14*transfer + 1e-9; tree.Makespan > upper {
		t.Fatalf("tree makespan %v above the pipelined critical chain %v", tree.Makespan, upper)
	}
	if tree.Hops != int64(p-1) || tree.Forwards != int64(p-1-4) {
		t.Fatalf("tree wire split hops=%d forwards=%d, want %d/%d (root degree ⌈log₂16⌉ = 4)",
			tree.Hops, tree.Forwards, p-1, p-1-4)
	}
}
