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

// TestSimfactRealRun drives simfact's real-run path end to end: an LU on
// seven nodes writes the two trace CSVs. The retired fault flags, -crash and
// -chaos-seed, are refused as flags the command does not define, and a
// replicated run, which only the simulator models, by name.
func TestSimfactRealRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "x")
	shape := []string{"./cmd/simfact", "-gantt", prefix, "-real", "-p", "7", "-n", "96", "-tb", "8", "-workers", "1"}
	if out, err := goRun(t, shape...); err != nil {
		t.Fatalf("simfact -real: %v\n%s", err, out)
	}
	for _, suffix := range []string{"-gantt.csv", "-messages.csv"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Error(err)
		}
	}
	var exit *exec.ExitError
	for _, retired := range [][]string{{"-crash", "2@5"}, {"-chaos-seed", "7"}} {
		out, err := goRun(t, append(shape, retired...)...)
		if !errors.As(err, &exit) || !strings.Contains(string(out), "flag provided but not defined: "+retired[0]) {
			t.Errorf("simfact -real %s: err %v, want a failed run naming the undefined flag:\n%s", strings.Join(retired, " "), err, out)
		}
	}

	// A zero tile size or worker count is refused by name, with status 1 —
	// not a divide-by-zero panic or an all-zero utilization line — and so is
	// a replication factor, which only the simulator runs.
	for _, c := range []struct{ flag, value, want string }{
		{"-tb", "0", "-tb must be >= 1"},
		{"-workers", "0", "-workers must be >= 1"},
		{"-repl", "2", "-repl is simulator-only"},
	} {
		out, err := goRun(t, append(shape, c.flag, c.value)...)
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), c.want) {
			t.Errorf("simfact -real %s %s: err %v, want exit status 1 saying %q:\n%s", c.flag, c.value, err, c.want, out)
		}
	}
}

// TestSimfactRegenUnknownFile: -regen of a file no experiments.Artifacts row
// writes exits with status 1, names the file and lists the known ones.
func TestSimfactRegenUnknownFile(t *testing.T) {
	out, err := goRun(t, "./cmd/simfact", "-regen", "nosuch.txt")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("simfact -regen nosuch.txt: err %v, want exit status 1:\n%s", err, out)
	}
	for _, want := range []string{`"nosuch.txt"`, "fig5.txt", "fig7a_paper.txt", "replication.txt"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("simfact -regen nosuch.txt does not say %s:\n%s", want, out)
		}
	}
}

// TestDistgenExitCodes: a request distgen cannot serve exits with status 1
// and a named error — a node count no scheme builds, not status 0 under a
// list of errors; an explicit scheme that fails, with core's error alone.
func TestDistgenExitCodes(t *testing.T) {
	for _, c := range []struct {
		args         []string
		want, absent string
	}{
		{[]string{"-p", "0"}, "no scheme serves P=0", ""},
		{[]string{"-scheme", "bogus", "-p", "23"}, `unknown scheme "bogus"`, "no scheme serves"},
	} {
		out, err := goRun(t, append([]string{"./cmd/distgen"}, c.args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), c.want) {
			t.Errorf("distgen %s: err %v, want exit status 1 saying %q:\n%s", strings.Join(c.args, " "), err, c.want, out)
		}
		if c.absent != "" && strings.Contains(string(out), c.absent) {
			t.Errorf("distgen %s says %q:\n%s", strings.Join(c.args, " "), c.absent, out)
		}
	}
}
