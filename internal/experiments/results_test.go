package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"anybc/internal/gcrm"
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
		if len(rowsUpTo(buf.String(), 0, 50000)) != len(pts) {
			t.Fatalf("%s: %d points simulated, not one row each", fig.file, len(pts))
		}
		sameRows(t, fig.file, buf.String(), 0, 50000)
	}
}

// TestCommittedPatternArtifactsRegenerate recomputes the pattern mathematics
// of results/ with the options of the command that writes each file
// (`costplot -fig N`, `distgen -table1`, `distgen -verify -mt 30`) and
// compares it with the committed text, whole: Figures 4, 9 and 10, Tables Ia
// and Ib and the Equation (1)/(2) validation — the validation factorizes real
// matrices, so it also holds the compiled plans' destination lists to the
// structural count. Figure 10 and Table Ib read their GCR&M patterns from
// core's embedded database; Figure 9 runs the P = 23 search it plots.
func TestCommittedPatternArtifactsRegenerate(t *testing.T) {
	search := gcrm.DefaultSearchOptions() // costplot's and distgen's defaults
	var buf bytes.Buffer
	RenderCost(&buf, "Figure 4: total cost T, P=1..64", Figure4(64))
	sameText(t, "fig4.txt", buf.String())

	best, all, err := Figure9(23, search)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderCandidates(&buf, 23, best, all)
	sameText(t, "fig9.txt", buf.String())

	rows, err := CommValidation(30, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderValidation(&buf, 30, rows)
	sameText(t, "verify.txt", buf.String())

	const ibTitle = "\nTable Ib — Cholesky factorization\n"
	ia, ib, ok := strings.Cut(committed(t, "table1.txt"), ibTitle)
	buf.Reset()
	buf.WriteString("Table Ia — LU factorization\n")
	RenderTableIa(&buf, TableIa(TableIaPs))
	if !ok || ia != buf.String() {
		t.Errorf("table1.txt: Table Ia regenerates as\n%s", buf.String())
	}
	ibRows, err := TableIb(TableIbPs, search)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderTableIb(&buf, ibRows)
	if buf.String() != ib {
		t.Errorf("table1.txt: Table Ib regenerates as\n%s\ncommitted\n%s", buf.String(), ib)
	}

	pts, err := Figure10(64, search)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderCost(&buf, "Figure 10: symmetric cost T, P=2..64", pts)
	sameText(t, "fig10.txt", buf.String())
}

// committed returns the text of a file of results/.
func committed(t *testing.T, file string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "results", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameText fails t unless got is the committed file, byte for byte.
func sameText(t *testing.T, file, got string) {
	t.Helper()
	if want := committed(t, file); got != want {
		t.Errorf("%s regenerates as\n%s\ncommitted\n%s", file, got, want)
	}
}

// sameRows fails t unless the rows of got are those of the committed file
// whose number in column col is at most max.
func sameRows(t *testing.T, file, got string, col, max int) {
	t.Helper()
	gotRows, want := rowsUpTo(got, col, max), rowsUpTo(committed(t, file), col, max)
	if len(want) == 0 || len(gotRows) != len(want) {
		t.Fatalf("%s: %d committed rows up to %d, %d regenerated", file, len(want), max, len(gotRows))
	}
	for i := range want {
		if gotRows[i] != want[i] {
			t.Errorf("%s row %d:\n regenerated %s\n committed   %s", file, i, gotRows[i], want[i])
		}
	}
}

// rowsUpTo returns the data rows of a rendered table whose number in column
// col is at most max, each with its column padding collapsed (the padding
// depends on the rows present). Titles and headers hold no number there.
func rowsUpTo(text string, col, max int) []string {
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) <= col {
			continue
		}
		if n, err := strconv.Atoi(fields[col]); err == nil && n <= max {
			rows = append(rows, strings.Join(fields, " "))
		}
	}
	return rows
}
