package runtime

import (
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/core"
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

// TestSimAndRealByteAccountingAgree pins the honesty of every communication
// counter: on LU under G-2DBC(16) and on the paper's headline shape,
// Cholesky under GCR&M(23), the real cluster's transcripts and the
// simulator's accounting must agree *exactly* — logical messages and bytes,
// hops, and per-node wire traffic — under the flat and tree-broadcast
// transports. One worker per node and no network seam, so both substrates run
// the identical schedule; the simulator message size is pinned to the
// runtime's 8·b² tile payload.
func TestSimAndRealByteAccountingAgree(t *testing.T) {
	const mt, b = 12, 4
	gcrm, err := core.New(core.GCRM, 23, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := simulate.Machine{Workers: 1, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 1e-6}
	lu := func(d dist.Distribution, opt Options) (*Report, error) {
		_, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 3), opt)
		return rep, err
	}
	cholesky := func(d dist.Distribution, opt Options) (*Report, error) {
		_, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 3), opt)
		return rep, err
	}

	cases := []struct {
		name      string
		g         dag.Graph
		d         dist.Distribution
		factor    func(dist.Distribution, Options) (*Report, error)
		broadcast cluster.BroadcastMode
	}{
		{"flat", dag.NewLU(mt), dist.NewG2DBC(16), lu, cluster.BroadcastFlat},
		{"tree", dag.NewLU(mt), dist.NewG2DBC(16), lu, cluster.BroadcastTree},
		{"cholesky gcrm23 flat", dag.NewCholesky(mt), gcrm, cholesky, cluster.BroadcastFlat},
		{"cholesky gcrm23 tree", dag.NewCholesky(mt), gcrm, cholesky, cluster.BroadcastTree},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.factor(tc.d, Options{Workers: 1, Broadcast: tc.broadcast})
			if err != nil {
				t.Fatal(err)
			}
			res, err := simulate.Run(tc.g, b, tc.d, m, simulate.Options{
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
		})
	}
}
