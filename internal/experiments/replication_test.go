package experiments

import "testing"

// TestReplicationReducesPerNodeVolume is the acceptance bar of the
// replication subsystem and the assertion behind CI's comm-volume gate: on
// the pinned 16-node case, replicated c=2 LU must reduce the mean per-node
// received bytes by at least 25% against the c=1 G-2DBC baseline (the
// analytic expectation is ~33%: panel broadcasts spread over the same base
// grid while each trailing tile's traffic splits across twice the nodes,
// minus one reduction shipment per tile). The sweep must also keep shrinking
// volume at c=4 and stay at or above the memory-parameterized COnfLUX lower
// bound, within a small constant of it.
func TestReplicationReducesPerNodeVolume(t *testing.T) {
	cfg, baseP, mt, cs := PinnedReplicationCase()
	pts, err := ReplicationSweep(cfg, baseP, mt, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].C != 1 || pts[1].C != 2 || pts[2].C != 4 {
		t.Fatalf("unexpected sweep shape: %+v", pts)
	}
	base, c2, c4 := pts[0], pts[1], pts[2]
	if base.ReduceBytes != 0 {
		t.Errorf("c=1 baseline shipped %d reduce bytes, want 0", base.ReduceBytes)
	}
	if c2.ReduceBytes == 0 || c4.ReduceBytes == 0 {
		t.Error("replicated runs shipped no reduction partials")
	}
	saving := 1 - c2.RecvMean/base.RecvMean
	if saving < 0.25 {
		t.Errorf("c=2 per-node received volume saving = %.1f%%, want >= 25%%", 100*saving)
	}
	if c4.RecvMean >= c2.RecvMean {
		t.Errorf("c=4 per-node volume %.4g not below c=2's %.4g", c4.RecvMean, c2.RecvMean)
	}
	for _, p := range pts {
		if p.RatioToBound < 1 || p.RatioToBound > 4 {
			t.Errorf("c=%d: ratio to bound %.3f outside the credible [1, 4] band",
				p.C, p.RatioToBound)
		}
	}
}
