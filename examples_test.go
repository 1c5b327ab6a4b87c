package anybc

import (
	"encoding/csv"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

// TestSimfactRealRun drives simfact's real-run path end to end. An LU on
// seven nodes whose node 2 dies before its sixth task fails: the command exits
// with status 1 and names the injected crash. The same shape under the fault
// plan of seed 7 heals and writes the three trace CSVs, and every count of its
// healing line is the number of faults-CSV rows of that kind.
func TestSimfactRealRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "x")
	shape := []string{"./cmd/simfact", "-gantt", prefix, "-real", "-p", "7", "-n", "96", "-tb", "8", "-workers", "1"}
	out, err := goRun(t, append(shape, "-crash", "2@5")...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "node 2 died before its owned task 5: chaos: injected node crash") {
		t.Errorf("simfact -real -crash 2@5: err %v, want exit status 1 naming the injected crash:\n%s", err, out)
	}

	out, err = goRun(t, append(shape, "-chaos-seed", "7")...)
	if err != nil {
		t.Fatalf("simfact -real -chaos-seed 7: %v\n%s", err, out)
	}
	for _, suffix := range []string{"-gantt.csv", "-messages.csv", "-faults.csv"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Error(err)
		}
	}
	healing := regexp.MustCompile(`healing: (\d+) re-requests for (\d+) injected losses(?: \([0-9.]+ per loss\))?, (\d+) redeliveries served, (\d+) arrivals recovered, \d+ late answers`).FindStringSubmatch(string(out))
	if healing == nil {
		t.Fatalf("no healing line:\n%s", out)
	}
	f, err := os.Open(prefix + "-faults.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, row := range rows[1:] {
		kinds[row[0]]++
	}
	for k, c := range []struct {
		what string
		rows int
	}{
		{"re-requests", kinds["re-request"]},
		{"injected losses", kinds["drop"] + kinds["drop-redeliver"]},
		{"redeliveries served", kinds["redeliver"]},
		{"arrivals recovered", kinds["recovered"]},
	} {
		if got := healing[k+1]; got != strconv.Itoa(c.rows) {
			t.Errorf("healing line says %s %s, the faults CSV has %d rows", got, c.what, c.rows)
		}
	}

	// A zero tile size or worker count is refused by name, with status 1 —
	// not a divide-by-zero panic or an all-zero utilization line.
	for flag, want := range map[string]string{"-tb": "-tb must be >= 1", "-workers": "-workers must be >= 1"} {
		out, err := goRun(t, "./cmd/simfact", "-gantt", prefix, "-real", "-p", "7", "-n", "96", "-tb", "8", flag, "0")
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), want) {
			t.Errorf("simfact -real %s 0: err %v, want exit status 1 saying %q:\n%s", flag, err, want, out)
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
