package anybc

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goRun runs `go run` with args from the module root, offline, and returns
// its combined output; it skips t when there is no go tool on PATH.
func goRun(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, append([]string{"run"}, args...)...)
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	return cmd.CombinedOutput()
}

// TestExamplesRun runs every program under examples/ with its default flags
// and expects it to exit 0. The examples are among the roots TestDeadSurface
// keeps code alive for, so they must keep working, not just compiling.
// Offline by construction, like TestBenchModuleVets.
func TestExamplesRun(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, main := range dirs {
		dir := filepath.Dir(main)
		t.Run(filepath.Base(dir), func(t *testing.T) {
			if out, err := goRun(t, "./"+filepath.ToSlash(dir)); err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, out)
			}
		})
	}
}

// TestSimfactRealRun drives simfact's real-run path end to end: an elastic
// LU on seven nodes whose node 2 dies before its sixth task. The command must
// exit 0, name the crash and node 0's adoption of node 2's whole share (76
// tasks) — both read from the run's trace — and write the three trace CSVs.
func TestSimfactRealRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "x")
	out, err := goRun(t, "./cmd/simfact", "-gantt", prefix, "-real", "-p", "7", "-n", "96", "-tb", "8",
		"-workers", "1", "-elastic", "-crash", "2@5")
	if err != nil {
		t.Fatalf("simfact -real: %v\n%s", err, out)
	}
	for _, want := range []string{"node 2 died mid-run", "node 0 migration: adopted 76 tasks"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output does not say %q:\n%s", want, out)
		}
	}
	for _, suffix := range []string{"-gantt.csv", "-messages.csv", "-faults.csv"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Error(err)
		}
	}

	// A zero tile size or worker count is refused by name, with status 1 —
	// not a divide-by-zero panic or an all-zero utilization line.
	for flag, want := range map[string]string{"-tb": "-tb must be >= 1", "-workers": "-workers must be >= 1"} {
		out, err := goRun(t, "./cmd/simfact", "-gantt", prefix, "-real", "-p", "7", "-n", "96", "-tb", "8", flag, "0")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), want) {
			t.Errorf("simfact -real %s 0: err %v, want exit status 1 saying %q:\n%s", flag, err, want, out)
		}
	}
}

// TestDistgenExitCodes: a size distgen cannot serve exits with status 1 and a
// named error — -verify at zero tiles, not a panic in the graph constructor;
// a node count no scheme builds, not status 0 under a list of errors.
func TestDistgenExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-verify", "-mt", "0"}, "mt = 0 tiles"},
		{[]string{"-p", "0"}, "no scheme serves P=0"},
	} {
		out, err := goRun(t, append([]string{"./cmd/distgen"}, c.args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), c.want) {
			t.Errorf("distgen %s: err %v, want exit status 1 saying %q:\n%s", strings.Join(c.args, " "), err, c.want, out)
		}
	}
}
