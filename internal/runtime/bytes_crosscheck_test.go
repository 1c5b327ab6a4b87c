package runtime

import (
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

// byDst sums counter c of st per receiving node.
func byDst(st cluster.Stats, c cluster.Counter) []int64 {
	out := make([]int64, st.P)
	for src := 0; src < st.P; src++ {
		for dst := range out {
			out[dst] += st.At(c, src, dst)
		}
	}
	return out
}

// graphAndDist pairs the graph and distribution the runtime factories build,
// so the simulator runs the identical configuration. c = 0 is the plain
// unreplicated LU.
func graphAndDist(mt, c int, base dist.Distribution) (dag.Graph, dist.Distribution) {
	if c == 0 {
		return dag.NewLU(mt), base
	}
	return dag.NewReplicatedLU(mt, c), dist.NewReplicated(base, c, mt)
}

// TestSimAndRealByteAccountingAgree pins the honesty of every communication
// counter: on the same pinned 16-node LU, the real cluster's transcripts and
// the simulator's accounting must agree *exactly* — logical messages and
// bytes, per-node wire traffic, and the reduction-partial subset — across
// the flat, tree-broadcast and replicated transports. One worker per node
// and no network seam, so both substrates run the identical schedule; the simulator
// message size is pinned to the runtime's 8·b² tile payload.
func TestSimAndRealByteAccountingAgree(t *testing.T) {
	const mt, b = 12, 4
	base := dist.NewG2DBC(16)
	m := simulate.Machine{Workers: 1, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 1e-6}

	cases := []struct {
		name      string
		c         int // replication factor; 0 = plain FactorLU
		broadcast cluster.BroadcastMode
	}{
		{"flat", 0, cluster.BroadcastFlat},
		{"tree", 0, cluster.BroadcastTree},
		{"replicated c=2 flat", 2, cluster.BroadcastFlat},
		{"replicated c=2 tree", 2, cluster.BroadcastTree},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rep *Report
			var err error
			g, d := graphAndDist(mt, tc.c, base)
			if tc.c == 0 {
				_, rep, err = FactorLU(mt, b, base, GenDiagDominant(mt, b, 3),
					Options{Workers: 1, Broadcast: tc.broadcast})
			} else {
				_, rep, err = FactorLUReplicated(mt, b, tc.c, base, GenDiagDominant(mt, b, 3),
					Options{Workers: 1, Broadcast: tc.broadcast})
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := simulate.Run(g, b, d, m, simulate.Options{
				Broadcast: tc.broadcast,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := rep.Stats
			if got, want := st.TotalMessages(), res.Messages; got != want {
				t.Errorf("messages: real %d, sim %d", got, want)
			}
			if got, want := st.TotalBytes(), res.Bytes; got != want {
				t.Errorf("bytes: real %d, sim %d", got, want)
			}
			if got, want := st.Total(cluster.Reduces), res.Reduces; got != want {
				t.Errorf("reduces: real %d, sim %d", got, want)
			}
			if got, want := st.Total(cluster.ReduceBytes), res.ReduceBytes; got != want {
				t.Errorf("reduce bytes: real %d, sim %d", got, want)
			}
			if got, want := st.TotalHops(), res.Hops; got != want {
				t.Errorf("hops: real %d, sim %d", got, want)
			}
			sent, recv := st.BySrc(cluster.WireBytes), byDst(st, cluster.WireBytes)
			for node := range sent {
				if sent[node] != res.SentBytes[node] {
					t.Errorf("node %d sent: real %d, sim %d", node, sent[node], res.SentBytes[node])
				}
				if recv[node] != res.RecvBytes[node] {
					t.Errorf("node %d recv: real %d, sim %d", node, recv[node], res.RecvBytes[node])
				}
			}
			if tc.c > 1 && res.Reduces == 0 {
				t.Error("replicated case shipped no reduction partials")
			}
		})
	}
}
