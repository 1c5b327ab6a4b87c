package anybc

// A BENCH_<pr>.json file at the repository root is the record of one
// change's benchmark pairs: what was run, on which box, and for every
// (workload, metric) series each seed's parent and change values, their
// medians, the parent's interquartile range and the number of pairs the
// change won. Traced counts that must not move (tile.calls,
// cluster.messages, simulate.messages, …) are listed with both sides'
// values. TestBenchFiles holds every file to that schema.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchFile is the schema of BENCH_<pr>.json.
type benchFile struct {
	PR      int           `json:"pr"`
	Title   string        `json:"title"`
	Box     string        `json:"box"`
	Command string        `json:"command"` // {workload} and {seed} are placeholders
	Order   string        `json:"order"`   // how parent and change alternated
	Series  []benchSeries `json:"series"`
	Traced  benchTraced   `json:"traced"`
}

// benchSeries is one metric of one workload over alternating pairs.
type benchSeries struct {
	Workload     string      `json:"workload"`
	Metric       string      `json:"metric"`
	Unit         string      `json:"unit"`
	Better       string      `json:"better"` // "lower" or "higher"
	Claim        bool        `json:"claim"`  // the change claims a gain on it
	Pairs        []benchPair `json:"pairs"`
	HeldOut      []benchPair `json:"held_out"` // seeds chosen after the pairs; not in the medians
	ParentMedian float64     `json:"parent_median"`
	ChangeMedian float64     `json:"change_median"`
	ParentIQR    float64     `json:"parent_iqr"`
	Wins         int         `json:"wins"` // pairs where the change is strictly better
}

type benchPair struct {
	Seed   int64   `json:"seed"`
	Parent float64 `json:"parent"`
	Change float64 `json:"change"`
}

// benchTraced lists the counts of a traced pass on both sides.
type benchTraced struct {
	Command string       `json:"command"`
	Counts  []benchCount `json:"counts"`
}

type benchCount struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	Parent    float64 `json:"parent"`
	Change    float64 `json:"change"`
	MustEqual bool    `json:"must_equal"`
}

// The keys every object must carry; held_out is the one optional key.
var (
	benchFileKeys   = []string{"pr", "title", "box", "command", "order", "series", "traced"}
	benchSeriesKeys = []string{"workload", "metric", "unit", "better", "claim", "pairs",
		"parent_median", "change_median", "parent_iqr", "wins"}
	benchPairKeys   = []string{"seed", "parent", "change"}
	benchTracedKeys = []string{"command", "counts"}
	benchCountKeys  = []string{"workload", "metric", "parent", "change", "must_equal"}
)

// firstBenchPR is the first PR whose CHANGES.md entry must come with its
// BENCH file when it reports a claim met. The claims of PRs 21–35 predate
// the schema and are exempt until ROADMAP item 10 transcribes them.
const firstBenchPR = 40

// changesEntry matches a CHANGES.md entry's opening "- PR <n>".
var changesEntry = regexp.MustCompile(`^- PR (\d+)\b`)

// TestBenchFiles parses every BENCH_*.json and fails on a missing or unknown
// key, a win count, median or interquartile range that disagrees with the
// pairs, or a must-equal traced count that moved; and on a CHANGES.md entry
// from firstBenchPR on that reports "claim met" with no BENCH_<pr>.json.
func TestBenchFiles(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json at the repository root")
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(changes), "\n") {
		m := changesEntry.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "claim met") {
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr >= firstBenchPR { // \d+ parses
			if _, err := os.Stat(fmt.Sprintf("BENCH_%d.json", pr)); err != nil {
				t.Errorf("CHANGES.md: PR %d reports a claim met but has no BENCH file: %v", pr, err)
			}
		}
	}
	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkBenchKeys(raw); err != nil {
				t.Fatal(err)
			}
			var f benchFile
			dec := json.NewDecoder(strings.NewReader(string(raw)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&f); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("BENCH_%d.json", f.PR); name != want {
				t.Errorf("file says pr %d, so it should be named %s", f.PR, want)
			}
			for _, s := range f.Series {
				checkBenchSeries(t, s)
			}
			for _, c := range f.Traced.Counts {
				if c.MustEqual && c.Parent != c.Change {
					t.Errorf("%s %s: traced count moved %v → %v", c.Workload, c.Metric, c.Parent, c.Change)
				}
			}
		})
	}
}

func checkBenchSeries(t *testing.T, s benchSeries) {
	t.Helper()
	label := s.Workload + " " + s.Metric
	if s.Better != "lower" && s.Better != "higher" {
		t.Errorf("%s: better is %q, want lower or higher", label, s.Better)
	}
	if len(s.Pairs) == 0 {
		t.Errorf("%s: no pairs", label)
		return
	}
	var parent, change []float64
	wins := 0
	for _, p := range s.Pairs {
		parent, change = append(parent, p.Parent), append(change, p.Change)
		if (s.Better == "lower" && p.Change < p.Parent) || (s.Better == "higher" && p.Change > p.Parent) {
			wins++
		}
	}
	if wins != s.Wins {
		t.Errorf("%s: wins says %d, the pairs say %d of %d", label, s.Wins, wins, len(s.Pairs))
	}
	for _, v := range []struct {
		name      string
		got, want float64
	}{
		{"parent_median", s.ParentMedian, quantile(parent, 0.5)},
		{"change_median", s.ChangeMedian, quantile(change, 0.5)},
		{"parent_iqr", s.ParentIQR, quantile(parent, 0.75) - quantile(parent, 0.25)},
	} {
		if math.Abs(v.got-v.want) > 1e-9*math.Max(1, math.Abs(v.want)) {
			t.Errorf("%s: %s says %v, the pairs say %v", label, v.name, v.got, v.want)
		}
	}
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// checkBenchKeys reports the first object of a BENCH file that lacks a
// required key.
func checkBenchKeys(raw []byte) error {
	var f map[string]json.RawMessage
	if err := json.Unmarshal(raw, &f); err != nil {
		return err
	}
	if err := hasKeys("file", f, benchFileKeys); err != nil {
		return err
	}
	var series []map[string]json.RawMessage
	if err := json.Unmarshal(f["series"], &series); err != nil {
		return err
	}
	for k, s := range series {
		if err := hasKeys(fmt.Sprintf("series %d", k), s, benchSeriesKeys); err != nil {
			return err
		}
		for _, key := range []string{"pairs", "held_out"} {
			var pairs []map[string]json.RawMessage
			if err := json.Unmarshal(cmpOr(s[key], "[]"), &pairs); err != nil {
				return err
			}
			for n, p := range pairs {
				if err := hasKeys(fmt.Sprintf("series %d %s %d", k, key, n), p, benchPairKeys); err != nil {
					return err
				}
			}
		}
	}
	var traced map[string]json.RawMessage
	if err := json.Unmarshal(f["traced"], &traced); err != nil {
		return err
	}
	if err := hasKeys("traced", traced, benchTracedKeys); err != nil {
		return err
	}
	var counts []map[string]json.RawMessage
	if err := json.Unmarshal(traced["counts"], &counts); err != nil {
		return err
	}
	for n, c := range counts {
		if err := hasKeys(fmt.Sprintf("traced count %d", n), c, benchCountKeys); err != nil {
			return err
		}
	}
	return nil
}

func hasKeys(what string, obj map[string]json.RawMessage, keys []string) error {
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			return fmt.Errorf("%s has no %q", what, k)
		}
	}
	return nil
}

// cmpOr returns raw, or def when the key was absent.
func cmpOr(raw json.RawMessage, def string) json.RawMessage {
	if raw == nil {
		return json.RawMessage(def)
	}
	return raw
}
