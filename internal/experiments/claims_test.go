package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestGCRMOutperformsSBC holds the committed Figures 11 and 12 to the
// paper's Cholesky claim: GCR&M on all P nodes reaches a higher total
// GFlop/s than the best SBC on at most P, at every matrix size.
func TestGCRMOutperformsSBC(t *testing.T) {
	for _, file := range []string{"fig11.txt", "fig12.txt"} {
		// gflops[N][scheme] is a row's total GFlop/s, scheme "GCR&M" or "SBC".
		gflops := map[string]map[string]float64{}
		for _, line := range strings.Split(committed(t, file), "\n") {
			f := strings.Fields(line)
			if len(f) < 4 {
				continue
			}
			if _, err := strconv.Atoi(f[0]); err != nil {
				continue // the title and the header
			}
			scheme, _, _ := strings.Cut(f[1], "(")
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", file, line, err)
			}
			if gflops[f[0]] == nil {
				gflops[f[0]] = map[string]float64{}
			}
			gflops[f[0]][scheme] = v
		}
		if len(gflops) == 0 {
			t.Fatalf("%s: no rows", file)
		}
		for n, by := range gflops {
			g, okG := by["GCR&M"]
			s, okS := by["SBC"]
			switch {
			case !okG || !okS:
				t.Errorf("%s, N = %s: want one GCR&M and one SBC row, have %v", file, n, by)
			case g <= s:
				t.Errorf("%s, N = %s: GCR&M %.0f GFlop/s does not beat SBC %.0f", file, n, g, s)
			}
		}
	}
}
