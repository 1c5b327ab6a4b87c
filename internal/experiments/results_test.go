package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactsCoverResults holds results/ to Artifacts: every committed
// file is one row and every row one file. `go run ./cmd/simfact -regen all`
// rewrites every file whole.
func TestArtifactsCoverResults(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, a := range Artifacts {
		if rows[a.File] {
			t.Errorf("two rows write %s", a.File)
		}
		rows[a.File] = true
	}
	for _, f := range files {
		if !rows[filepath.Base(f)] {
			t.Errorf("results/%s has no Artifacts row", filepath.Base(f))
		}
	}
	for file := range rows {
		if _, err := os.Stat(filepath.Join("..", "..", "results", file)); err != nil {
			t.Errorf("Artifacts row %s has no committed file: %v", file, err)
		}
	}
}

// TestCommittedFiguresRegenerate recomputes the Artifacts rows tier-1
// compares in part — the per-N and strong-scaling performance figures and
// the replication table — and
// holds the rows each one's Keep selects to the committed text, field by
// field. A row with no Sample (a file too large to simulate here) is a
// skipped subtest, left to a full regeneration.
func TestCommittedFiguresRegenerate(t *testing.T) {
	regenerate(t, func(a Artifact) bool { return a.Sample == nil || a.Keep != nil })
}

// TestCommittedPatternArtifactsRegenerate recomputes the Artifacts rows
// tier-1 compares whole — the pattern mathematics of Figures 4, 9 and 10,
// Tables Ia and Ib and the Equation (1)/(2) validation — and holds each to
// the committed text byte for byte.
func TestCommittedPatternArtifactsRegenerate(t *testing.T) {
	regenerate(t, func(a Artifact) bool { return a.Sample != nil && a.Keep == nil })
}

// regenerate runs the Sample of every Artifacts row that pick selects as a
// subtest and compares it with the committed file: whole when the row has
// no Keep, otherwise the rows Keep selects. A change to the simulator, a
// distribution, the pattern search or the runtime's message accounting that
// moves a paper number fails here instead of leaving results/ quietly stale.
func regenerate(t *testing.T, pick func(Artifact) bool) {
	t.Helper()
	ran := 0
	for _, a := range Artifacts {
		if !pick(a) {
			continue
		}
		ran++
		t.Run(a.File, func(t *testing.T) {
			want := committed(t, a.File)
			if a.Sample == nil {
				t.Skipf("compared only when regenerated whole (%s)", a.Cost)
			}
			var buf bytes.Buffer
			if err := a.Sample(&buf); err != nil {
				t.Fatal(err)
			}
			if a.Keep == nil {
				if got := buf.String(); got != want {
					t.Errorf("regenerates as\n%s\ncommitted\n%s", got, want)
				}
				return
			}
			got, kept := keptRows(buf.String(), a.Keep), keptRows(want, a.Keep)
			if len(kept) == 0 || len(got) != len(kept) {
				t.Fatalf("%d committed rows kept, %d regenerated", len(kept), len(got))
			}
			for i := range kept {
				if got[i] != kept[i] {
					t.Errorf("row %d:\n regenerated %s\n committed   %s", i, got[i], kept[i])
				}
			}
		})
	}
	if ran == 0 {
		t.Fatal("no Artifacts row selected")
	}
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

// keptRows returns the lines of text that keep selects, each with its column
// padding collapsed (the padding depends on the rows present).
func keptRows(text string, keep func([]string) bool) []string {
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		if fields := strings.Fields(line); len(fields) > 0 && keep(fields) {
			rows = append(rows, strings.Join(fields, " "))
		}
	}
	return rows
}
