package runtime

import (
	"strings"
	"testing"

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
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error
	}{
		{"Broadcast against the shared cluster's mode",
			Options{Cluster: flat, Broadcast: cluster.BroadcastTree}, "tree broadcast requested"},
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
