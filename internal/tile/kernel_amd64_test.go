package tile

import (
	"os"
	"strings"
	"testing"
)

// TestMicroKernelProbeMatchesCpuinfo holds the CPUID/XGETBV probes to the
// kernel's own reading of the same bits: Linux lists a vector extension in
// /proc/cpuinfo only when the CPU has it and the OS saves its state.
func TestMicroKernelProbeMatchesCpuinfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	if got, want := cpuHasAVX2FMA(), flags["avx2"] && flags["fma"]; got != want {
		t.Errorf("cpuHasAVX2FMA() = %v, /proc/cpuinfo says %v", got, want)
	}
	if got, want := cpuHasAVX512(avx512F), flags["avx512f"]; got != want {
		t.Errorf("cpuHasAVX512(avx512F) = %v, /proc/cpuinfo says %v", got, want)
	}
	if got, want := hasAVX512DQ, flags["avx512f"] && flags["avx512dq"]; got != want {
		t.Errorf("hasAVX512DQ = %v, /proc/cpuinfo says %v", got, want)
	}
}
