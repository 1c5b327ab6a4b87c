package anybc

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks bench/ against this checkout. bench/ is a
// module of its own (replace anybc => ../), so the root module's
// `go test ./...` never compiles it, and a change that breaks an API the
// benchmark builds against would otherwise surface only when the benchmark
// is next run. Offline by construction: no workspace, no proxy, no toolchain
// download.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
