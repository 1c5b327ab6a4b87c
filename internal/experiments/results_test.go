package experiments

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCommittedFiguresRegenerate re-simulates the N ≤ 50 000 rows of every
// committed per-N figure file — the LU sweeps of Figures 1, 5 and 6, the
// Cholesky sweeps of Figures 11 and 12 with their GCR&M searches — with the
// configuration `simfact -fig` uses, and compares them field by field with the
// committed text: a change to the simulator, the scheduler, a distribution or
// the pattern search that moves a paper number fails here instead of leaving
// results/ quietly stale. (The larger rows are the same code on more tasks;
// `simfact -fig N > results/figN.txt` rewrites a file. Figures 7a and 7b hold
// only N = 100 000 rows.)
func TestCommittedFiguresRegenerate(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Ns = []int{25000, 50000}
	for _, fig := range []struct {
		file string
		gen  func(SimConfig) ([]PerfPoint, error)
	}{
		{"fig1.txt", Figure1},
		{"fig5.txt", Figure5},
		{"fig6.txt", Figure6},
		{"fig11.txt", Figure11},
		{"fig12.txt", Figure12},
	} {
		pts, err := fig.gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderPerf(&buf, "", pts)
		got := perfRows(t, &buf, 50000)

		f, err := os.Open(filepath.Join("..", "..", "results", fig.file))
		if err != nil {
			t.Fatal(err)
		}
		want := perfRows(t, f, 50000)
		f.Close()

		if len(want) != len(pts) || len(got) != len(want) {
			t.Fatalf("%s: %d committed rows at N <= 50000, %d simulated", fig.file, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s row %d:\n simulated %s\n committed %s", fig.file, i, got[i], want[i])
			}
		}
	}
}

// perfRows returns the data rows of a RenderPerf table with N ≤ maxN, each
// with its column padding collapsed (the padding depends on the rows present).
func perfRows(t *testing.T, r io.Reader, maxN int) []string {
	t.Helper()
	var rows []string
	for sc := bufio.NewScanner(r); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil || n > maxN {
			continue // title, header, or a larger matrix
		}
		rows = append(rows, strings.Join(fields, " "))
	}
	return rows
}
