package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"anybc/internal/dist"
	"anybc/internal/gcrm"
	"anybc/internal/pattern"
)

// marshal returns the pattern.Marshal text of p.
func marshal(t *testing.T, p *pattern.Pattern) string {
	t.Helper()
	var b bytes.Buffer
	if err := p.Marshal(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// entry renders one database entry in the format cmd/patterndb writes.
func entry(t *testing.T, P int, res *gcrm.Result) string {
	return fmt.Sprintf("P %d seed %d\n", P, res.Seed) + marshal(t, res.Pattern)
}

func stored(t *testing.T) map[int]*gcrm.Result {
	t.Helper()
	db, err := storedPatterns()
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != 63 {
		t.Fatalf("database holds %d entries, want P = 2..64", len(db))
	}
	return db
}

// TestStoredPatternsRebuild holds every entry to Algorithm 1: its pattern is
// the one gcrm.BuildSeeded makes from its R and seed, and its cost the
// pattern's.
func TestStoredPatternsRebuild(t *testing.T) {
	db := stored(t)
	for P := 2; P <= 64; P++ {
		res := db[P]
		if res == nil {
			t.Errorf("no entry for P=%d", P)
			continue
		}
		pat, err := gcrm.BuildSeeded(P, res.R, res.Seed)
		if err != nil {
			t.Errorf("P=%d: %v", P, err)
			continue
		}
		if marshal(t, pat) != marshal(t, res.Pattern) {
			t.Errorf("P=%d: BuildSeeded(%d, %d, %d) builds another pattern", P, P, res.R, res.Seed)
		}
		if res.R != pat.Rows() || res.Cost != pat.CostCholesky() {
			t.Errorf("P=%d: R %d cost %v, pattern %s cost %v", P, res.R, res.Cost, pat.Dims(), pat.CostCholesky())
		}
	}
}

// TestStoredPatternsMatchSearch re-runs the paper's search for the small node
// counts: the database holds exactly what the search returns. (The whole file
// is re-searched by `go run ./cmd/patterndb`.)
func TestStoredPatternsMatchSearch(t *testing.T) {
	db := stored(t)
	for P := 2; P <= 20; P++ {
		fresh, err := gcrm.Search(P, gcrm.DefaultSearchOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := entry(t, P, db[P]), entry(t, P, fresh); got != want {
			t.Errorf("P=%d: stored\n%s\nsearch returns\n%s", P, got, want)
		}
		if db[P].Cost != fresh.Cost || db[P].R != fresh.R {
			t.Errorf("P=%d: stored R %d cost %v, search R %d cost %v", P, db[P].R, db[P].Cost, fresh.R, fresh.Cost)
		}
	}
}

// TestSearchGCRMReadsDatabase: the paper's protocol, with or without
// Parallel, and core.New's zero options all return the stored result itself.
func TestSearchGCRMReadsDatabase(t *testing.T) {
	want := stored(t)[23]
	serial := gcrm.DefaultSearchOptions()
	serial.Parallel = false
	for _, opts := range []gcrm.SearchOptions{gcrm.DefaultSearchOptions(), serial} {
		if got, err := SearchGCRM(23, opts); err != nil || got != want {
			t.Errorf("SearchGCRM(23, %+v) = %p, %v; want the stored %p", opts, got, err, want)
		}
	}
	d, err := New(GCRM, 23, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := dist.PatternOf(d); p != want.Pattern || d.Name() != "GCR&M(24x24,P=23)" {
		t.Errorf("New(GCRM, 23, Options{}) = %s, not the stored pattern", d.Name())
	}
}

// TestNewKeepsPartialSearchOptions: only the zero options mean the paper's
// protocol; options with Seeds unset are searched as given.
func TestNewKeepsPartialSearchOptions(t *testing.T) {
	opts := gcrm.SearchOptions{SizeFactor: 3, BaseSeed: 1}
	want, err := gcrm.Search(23, opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(GCRM, 23, Options{GCRMSearch: opts})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := dist.PatternOf(d)
	if p.Rows() != want.R || p.CostCholesky() != want.Cost {
		t.Errorf("New with %+v built %s (T = %.3f), search returns %dx%d (T = %.3f)",
			opts, p.Dims(), p.CostCholesky(), want.R, want.R, want.Cost)
	}
}

// TestParsePatternsRejectsMalformed: a damaged database is an error, never a
// panic and never a wrong pattern.
func TestParsePatternsRejectsMalformed(t *testing.T) {
	db := stored(t)
	good := entry(t, 5, db[5]) + entry(t, 6, db[6])
	parsed, err := parsePatterns(good)
	if err != nil || len(parsed) != 2 {
		t.Fatalf("two good entries parse as %d, %v", len(parsed), err)
	}
	six := entry(t, 6, db[6])
	bad := map[string]string{
		"header only":       entry(t, 5, db[5]) + "P 6 seed 1\n",
		"truncated":         strings.TrimSuffix(good, six[strings.LastIndex(six[:len(six)-1], "\n")+1:]),
		"mislabelled":       strings.Replace(good, "P 6 ", "P 7 ", 1),
		"duplicate":         good + entry(t, 6, db[6]),
		"bad header":        strings.Replace(good, "P 6 ", "Q 6 ", 1),
		"negative node":     entry(t, 5, db[5]) + strings.Replace(six, " 0", " -3", 1),
		"node out of range": entry(t, 5, db[5]) + strings.Replace(six, " 0", " 9", 1),
		"not square":        "P 2 seed 1\n1 2\n0 1\n",
		"blank line":        entry(t, 5, db[5]) + "\n" + six,
	}
	for name, text := range bad {
		if _, err := parsePatterns(text); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, text)
		}
	}
	// Every prefix of a good file parses to an error or to intact entries.
	for n := range good {
		got, err := parsePatterns(good[:n])
		if err != nil {
			continue
		}
		for P, res := range got {
			if entry(t, P, res) != entry(t, P, parsed[P]) {
				t.Errorf("prefix %d: entry P=%d parsed as\n%s", n, P, entry(t, P, res))
			}
		}
	}
}
