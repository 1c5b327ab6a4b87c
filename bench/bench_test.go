package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"anybc/internal/dist"
	"anybc/internal/runtime"
)

// A run clocks set-up in children of its own executable. Under go test that
// is the test binary, which then has to act as the command.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-workload" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	odd := []float64{5, 1, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median of %v = %v, want 3", odd, got)
	}
	even := []float64{4, 1, 3, 2}
	if got := median(even); got != 2.5 {
		t.Errorf("median of %v = %v, want 2.5", even, got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for p, want := range map[float64]float64{90: 90, 99: 99, 100: 100, 1: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("p%g of 1..100 = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{1: 50, 19: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 5760: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	// The workload table's fixed percentiles follow the same rule.
	for _, w := range workloads {
		if want := tailPercentile(w.samples()); w.tailPct != want {
			t.Errorf("%s: op_tail_ms is p%g, but %d samples a run allow p%g", w.name, w.tailPct, w.samples(), want)
		}
	}
}

func TestOpsScaleWithSeconds(t *testing.T) {
	w := &workload{ops: 34}
	for seconds, want := range map[float64]int{runSeconds: 34, runSeconds / 2: 17, 2 * runSeconds: 68, 0.01: 1} {
		if got := w.opsFor(seconds); got != want {
			t.Errorf("opsFor(%g) = %d, want %d", seconds, got, want)
		}
	}
}

func TestUnionSeconds(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want float64
	}{
		{nil, 0},
		{[]interval{{0, 1}}, 1},
		{[]interval{{0, 1}, {2, 3}}, 2},
		{[]interval{{2, 3}, {0, 1}}, 2},
		{[]interval{{0, 2}, {1, 3}}, 3},
		{[]interval{{0, 10}, {1, 2}, {3, 4}}, 10},
		{[]interval{{0, 1}, {1, 2}}, 2},
	}
	for _, c := range cases {
		if got := unionSeconds(c.ivs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("unionSeconds(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}

func TestAttributionSumsToOne(t *testing.T) {
	cases := [][5]float64{
		{0.57, 0.50, 0.08, 0.03, 0.30}, // a plausible lu-compute call
		{0.023, 0.020, 0.0005, 0.0002, 0.001},
		{1, 1.2, 0.1, 0.1, 0.5}, // elapsed beyond the wall: clamps
		{1, 0.5, 0.9, 0.4, 0.9}, // components beyond the wall: clamps
		{1, 0, 0, 0, 0},
		{1, 1, 0, 0, 5}, // computed kernel time beyond the wall
	}
	for _, c := range cases {
		a := attribute(c[0], c[1], c[2], c[3], c[4])
		if math.Abs(a.sum()-1) > 1e-9 {
			t.Errorf("attribute%v sums to %v", c, a.sum())
		}
		for _, f := range []float64{a.gen, a.collect, a.prepost, a.kernel, a.other} {
			if f < -1e-12 || f > 1+1e-12 {
				t.Errorf("attribute%v has a fraction outside [0,1]: %+v", c, a)
			}
		}
	}
	a := attribute(0.57, 0.50, 0.08, 0.03, 0.30)
	if math.Abs(a.prepost-(0.57-0.50-0.03)/0.57) > 1e-12 || math.Abs(a.kernel-0.30/0.57) > 1e-12 {
		t.Errorf("attribute mis-splits the plain case: %+v", a)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := iqrShare([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1,2,4) = %v, want %v", got, want)
	}
}

func TestNamesAndCountsFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(workloads) != 5 {
		t.Errorf("%d workloads, the README's glossary lists 5", len(workloads))
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", len(perLayer))
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") || w.why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		if findWorkload(w.name, true) == nil {
			t.Errorf("%s has no smoke variant", w.name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		use(m.name)
		if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.name, m.unit, m.better)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.unit == "s" && m.better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		use(m.name)
		if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.name, m.unit, m.better)
		}
	}
}

func TestManifestMatchesCommittedFile(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if want.Len() > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, the contract allows 64 KiB", want.Len())
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it from bench/ with: go run . -manifest > ../BENCHMARK.json")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("BENCHMARK.json has keys the contract does not list: %v", keys)
	}
}

func TestResultLineRoundTrip(t *testing.T) {
	in := result{Correct: true, Attempted: 1000, Failed: 0, Metrics: map[string]metric{
		"op_p50_ms": {1.2034, "ms"}, "setup_s": {0.8127, "s"}}}
	var out bytes.Buffer
	out.WriteString("workload x: human-readable lines first\n  op_p50_ms 1.2 ms\n")
	if err := printResult(&out, in); err != nil {
		t.Fatal(err)
	}
	got, err := lastLineResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip gave %+v, want %+v", got, in)
	}
	var keys map[string]json.RawMessage
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{"op_p50_ms", "ms", "lower", 0.10}
	higher := metricSpec{"ops_per_s", "1/s", "higher", 0.10}
	s := func(median, spread float64) series { return series{Unit: "x", Median: median, Spread: spread} }
	cases := []struct {
		m        metricSpec
		old, new series
		want     string
	}{
		{lower, s(100, 0.02), s(104, 0.02), verdictWithin},
		{lower, s(100, 0.02), s(115, 0.02), verdictWorse},
		{lower, s(100, 0.02), s(85, 0.02), verdictBetter},
		{higher, s(100, 0.02), s(85, 0.02), verdictWorse},
		{higher, s(100, 0.02), s(115, 0.02), verdictBetter},
		{higher, s(100, 0.02), s(95, 0.02), verdictWithin},
		{lower, s(100, 0.02), s(130, 0.12), verdictUnresolved},
		{lower, s(100, 0.12), s(100, 0.02), verdictUnresolved},
	}
	for _, c := range cases {
		r := judge(c.m, c.old, c.new)
		if r.verdict != c.want {
			t.Errorf("%s %v -> %v (spreads %v, %v): %s, want %s", c.m.name, c.old.Median, c.new.Median,
				c.old.Spread, c.new.Spread, r.verdict, c.want)
		}
	}
	if r := judge(lower, s(100, 0), s(104, 0)); math.Abs(r.change-0.04) > 1e-12 {
		t.Errorf("change of 100 -> 104 = %v, want 0.04 of the old median", r.change)
	}

	// Whole results: per-layer rows carry no verdict, and the printout names
	// the base of every ratio.
	mk := func(p50, gemm float64) *suiteResult {
		return &suiteResult{Workloads: []workloadResult{{Name: "lu-compute",
			EndToEnd: map[string]series{"op_p50_ms": s(p50, 0.01)},
			PerLayer: map[string]series{"tile.gemm_gflops": s(gemm, 0)}}}}
	}
	rows := compareSuites(mk(100, 30), mk(130, 33))
	var e2e, layer *row
	for i := range rows {
		switch rows[i].metric {
		case "op_p50_ms":
			e2e = &rows[i]
		case "tile.gemm_gflops":
			layer = &rows[i]
		}
	}
	if e2e == nil || e2e.verdict != verdictWorse || layer == nil || layer.verdict != "" || layer.endToEnd {
		t.Fatalf("compareSuites rows wrong: e2e %+v layer %+v", e2e, layer)
	}
	// failed_share is absolute: a failed operation or a pass without metrics
	// on the new side is worse, whatever the medians say.
	failures := func(old, new *suiteResult) row {
		for _, r := range compareSuites(old, new) {
			if r.metric == "failed_share" {
				return r
			}
		}
		t.Fatal("compareSuites gave no failed_share row")
		return row{}
	}
	full := func(failed int) *suiteResult {
		res := &suiteResult{Passes: 3, Workloads: []workloadResult{{Name: "lu-compute", Attempted: 60, Failed: failed,
			EndToEnd: map[string]series{}}}}
		for _, m := range endToEnd {
			res.Workloads[0].EndToEnd[m.name] = series{Median: 100, Runs: []float64{99, 100, 101}}
		}
		return res
	}
	if r := failures(full(0), full(0)); r.verdict != verdictWithin || !r.endToEnd {
		t.Errorf("no failures on either side: %+v", r)
	}
	if r := failures(full(0), full(1)); r.verdict != verdictWorse || r.new != 1.0/60 {
		t.Errorf("one failed operation on the new side: %+v", r)
	}
	if r := failures(full(3), full(0)); r.verdict != verdictWithin {
		t.Errorf("failures on the old side only: %+v", r)
	}
	dropped := full(0)
	dropped.Workloads[0].EndToEnd["op_p50_ms"] = series{Median: 100, Runs: []float64{99, 101}}
	if r := failures(full(0), dropped); r.verdict != verdictWorse {
		t.Errorf("a pass that reported no metrics: %+v", r)
	}

	var out bytes.Buffer
	printRows(&out, rows)
	if !strings.Contains(out.String(), "+30.0% of 100") || !strings.Contains(out.String(), "+10.0% of 30") {
		t.Errorf("printout does not name the base of its ratios:\n%s", out.String())
	}
}

// The plain-loop checks must catch what they exist to catch.
func TestFreivaldsCatchesACorruptedFactor(t *testing.T) {
	const mt, b, seed = 3, 8, 7
	lu, _, err := runtime.FactorLU(mt, b, dist.NewG2DBC(3), runtime.GenDiagDominant(mt, b, seed), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := freivaldsLU(lu, seed); e > freivaldsTol {
		t.Errorf("correct LU factors rejected: relative error %g", e)
	}
	before := hashDense(lu)
	lu.Set(13, 5, lu.At(13, 5)*(1+1e-6))
	if e := freivaldsLU(lu, seed); e <= freivaldsTol {
		t.Errorf("corrupted LU factors accepted: relative error %g", e)
	}
	if hashDense(lu) == before {
		t.Error("digest did not change with the factors")
	}

	ch, _, err := runtime.FactorCholesky(mt, b, dist.NewG2DBC(3), runtime.GenSPD(mt, b, seed), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := freivaldsCholesky(ch, seed); e > freivaldsTol {
		t.Errorf("correct Cholesky factor rejected: relative error %g", e)
	}
	ch.Set(13, 5, ch.At(13, 5)*(1+1e-6))
	if e := freivaldsCholesky(ch, seed); e <= freivaldsTol {
		t.Errorf("corrupted Cholesky factor accepted: relative error %g", e)
	}
}

// TestSmoke drives all five workloads and their verification, untraced and
// traced, at the -smoke sizes.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range smokeWorkloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{w: w, seed: 5, seconds: runSeconds, smoke: true, traced: traced,
				traceOut: filepath.Join(dir, w.name+".json")}
			res := run(cfg, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
				continue
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, m.name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, v.Value)
				}
			}
			if !traced {
				continue
			}
			if w.factor != nil {
				sum := 0.0
				for _, k := range []string{"gen", "collect", "prepost", "kernel", "other"} {
					sum += res.Metrics["runtime.attr_"+k].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: runtime.attr_* sum to %v", w.name, sum)
				}
				if got := res.Metrics["cluster.msgs_over_eq1"].Value; got != 1 {
					t.Errorf("%s: cluster.msgs_over_eq1 = %v, want exactly 1", w.name, got)
				}
			}
			if w.serve != nil && res.Metrics["serve.pool_outstanding_end"].Value != 0 {
				t.Errorf("serve-mix: pool did not drain")
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("%s: traced pass wrote no spans: %v", w.name, err)
			}
		}
	}
}
