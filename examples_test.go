package anybc

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun runs every program under examples/ with its default flags
// and expects it to exit 0. The examples are among the roots TestDeadSurface
// keeps code alive for, so they must keep working, not just compiling.
// Offline by construction, like TestBenchModuleVets.
func TestExamplesRun(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, main := range dirs {
		dir := filepath.Dir(main)
		t.Run(filepath.Base(dir), func(t *testing.T) {
			cmd := exec.Command(goTool, "run", "./"+filepath.ToSlash(dir))
			cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, out)
			}
		})
	}
}
