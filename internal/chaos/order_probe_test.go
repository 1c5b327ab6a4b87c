package chaos

import "testing"

// TestProbePermutationIndependence holds the fault log to 200 random
// permutations of one feed that sends every identity twice.
func TestProbePermutationIndependence(t *testing.T) {
	base, _ := fwdRev(80)
	ref := feedLog(t, feedCfg, base).Fingerprint()
	// lcg permutations
	seedp := int64(12345)
	for trial := 0; trial < 200; trial++ {
		perm := make([]int, len(base))
		copy(perm, base)
		for i := len(perm) - 1; i > 0; i-- {
			seedp = seedp*6364136223846793005 + 1442695040888963407
			j := int((seedp >> 33) % int64(i+1))
			if j < 0 {
				j = -j
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		if fp := feedLog(t, feedCfg, perm).Fingerprint(); fp != ref {
			t.Fatalf("trial %d: fingerprint %s != ref %s for perm %v", trial, fp, ref, perm)
		}
	}
}
