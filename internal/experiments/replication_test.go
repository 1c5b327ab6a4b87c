package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestReplicationAtFixedNodeCount holds the committed replication table —
// whose sampled rows TestCommittedFiguresRegenerate recomputes, and which a
// full regeneration rewrites whole — to what it claims about 2.5D layers at a
// fixed total node count P:
//   - every c > 1 point receives less per node than c = 1 at the same
//     (P, mt); c = 4 need not beat c = 2 (at P = 64 it does not);
//   - every point's received volume lies within [1, 4] times the COnfLUX
//     bound;
//   - c = 2 shortens the makespan at P = 1024 for mt 128 and 256, and
//     lengthens it at every P ≤ 256 point.
func TestReplicationAtFixedNodeCount(t *testing.T) {
	type point struct{ recv, ratio, makespan float64 }
	type pair struct{ p, mt int }
	pts := map[pair]map[int]point{}
	for _, line := range strings.Split(committed(t, "replication.txt"), "\n") {
		f := strings.Fields(line)
		var v [9]float64
		ok := len(f) == len(v)
		for i := 0; ok && i < len(v); i++ {
			var err error
			v[i], err = strconv.ParseFloat(f[i], 64)
			ok = err == nil
		}
		if !ok {
			continue // the title and the column header
		}
		k := pair{int(v[0]), int(v[1])}
		if pts[k] == nil {
			pts[k] = map[int]point{}
		}
		pts[k][int(v[2])] = point{recv: v[4], ratio: v[7], makespan: v[8]}
	}
	if len(pts) != len(replicationCases) {
		t.Fatalf("%d (P, mt) pairs in the table, want %d", len(pts), len(replicationCases))
	}
	for k, byC := range pts {
		base, ok := byC[1]
		if !ok || len(byC) != len(replicationCs) {
			t.Fatalf("P=%d mt=%d: factors %v, want %v", k.p, k.mt, byC, replicationCs)
		}
		for c, pt := range byC {
			if c > 1 && pt.recv >= base.recv {
				t.Errorf("P=%d mt=%d c=%d: %.1f MB received per node, not below c=1's %.1f",
					k.p, k.mt, c, pt.recv, base.recv)
			}
			if pt.ratio < 1 || pt.ratio > 4 {
				t.Errorf("P=%d mt=%d c=%d: ratio to bound %.3f outside [1, 4]", k.p, k.mt, c, pt.ratio)
			}
		}
		wins := byC[2].makespan < base.makespan
		switch {
		case k.p <= 256 && wins:
			t.Errorf("P=%d mt=%d: c=2 makespan %.3f s below c=1's %.3f s, want it above",
				k.p, k.mt, byC[2].makespan, base.makespan)
		case k.p == 1024 && k.mt >= 128 && !wins:
			t.Errorf("P=%d mt=%d: c=2 makespan %.3f s not below c=1's %.3f s",
				k.p, k.mt, byC[2].makespan, base.makespan)
		}
	}
}
