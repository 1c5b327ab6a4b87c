package runtime

import (
	"strings"
	"testing"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dist"
)

// TestOptionsRejectMeaninglessCombinations pins normalize's up-front
// rejections: each row sets a field that used to be silently ignored because
// the field it depends on is unset, or because the shared cluster overrides
// it, and must now fail before anything runs, naming the reason.
func TestOptionsRejectMeaninglessCombinations(t *testing.T) {
	const mt, b = 4, 3
	d := dist.NewTwoDBC(2, 2)
	flat := cluster.New(d.Nodes())
	defer flat.Close()
	lossy, err := chaos.New(chaos.Config{Seed: 1, PDrop: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error
	}{
		{"Job without Cluster", Options{Job: 3}, "Options.Cluster is nil"},
		{"Speeds without Elastic", Options{Speeds: []float64{1, 1, 1, 2}}, "Options.Elastic"},
		{"LagReRequests without Elastic", Options{LagReRequests: 2}, "Options.Elastic"},
		{"negative ArrivalTimeout", Options{ArrivalTimeout: -1}, "negative ArrivalTimeout"},
		{"Broadcast against the shared cluster's mode",
			Options{Cluster: flat, Job: 1, Broadcast: cluster.BroadcastTree}, "tree broadcast requested"},
		{"delivery faults on a shared cluster",
			Options{Cluster: flat, Job: 2, Chaos: lossy}, "delivery faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 1), tc.opt)
			if err == nil {
				t.Fatal("accepted and silently ignored")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not name the reason (%q): %v", tc.want, err)
			}
		})
	}
}
