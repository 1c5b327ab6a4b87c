package chaos

import (
	"strings"
	"sync"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/trace"
)

// sink collects delivered messages in arrival order.
type sink struct {
	mu   sync.Mutex
	msgs []cluster.Message
}

func (s *sink) deliver(m cluster.Message) {
	s.mu.Lock()
	s.msgs = append(s.msgs, m)
	s.mu.Unlock()
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) tags() []cluster.Tag {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cluster.Tag, len(s.msgs))
	for i, m := range s.msgs {
		out[i] = m.Tag
	}
	return out
}

// waitFor polls until the sink holds want messages or the deadline passes.
func waitFor(t *testing.T, s *sink, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d messages delivered", s.len(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func msg(from, to, i int) cluster.Message {
	return cluster.Message{From: from, To: to, Tag: cluster.Tag{I: int32(i)}}
}

func mustPlan(t *testing.T, cfg Config) *Plan {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recorded builds a plan of cfg bound to a fresh recorder, its fault log.
func recorded(t *testing.T, cfg Config) (*Plan, *trace.Recorder) {
	t.Helper()
	p, rec := mustPlan(t, cfg), &trace.Recorder{}
	p.Bind(rec, time.Now())
	return p, rec
}

// count returns how many faults of kind rec holds.
func count(rec *trace.Recorder, kind string) int {
	n := 0
	for _, f := range rec.Faults {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

// feedCfg is the all-faults mix the feed-order tests draw from.
var feedCfg = Config{Seed: 42, PDelay: 0.4, PReorder: 0.2, PDuplicate: 0.1,
	PDrop: 0.1, PDropRedeliver: 0.1,
	MaxDelay: time.Millisecond, RedeliverAfter: time.Millisecond,
	ReorderFlush: 5 * time.Millisecond}

// feedLog feeds the messages of order to a fresh recorded plan of cfg and
// returns its fault log. Index i is message i%40, msg(i%40%3, 3, i%40): an
// index past 39 re-sends an identity, as its next attempt.
func feedLog(t *testing.T, cfg Config, order []int) *trace.Recorder {
	t.Helper()
	p, rec := recorded(t, cfg)
	var s sink
	for _, i := range order {
		i %= 40
		p.Deliver(msg(i%3, 3, i), s.deliver)
	}
	p.Flush()
	return rec
}

// fwdRev returns 0..n-1 and its reverse.
func fwdRev(n int) (fwd, rev []int) {
	fwd, rev = make([]int, n), make([]int, n)
	for i := range fwd {
		fwd[i] = i
		rev[n-1-i] = i
	}
	return fwd, rev
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PDelay: -0.1},
		{PReorder: 1.5},
		{PDrop: 0.5, PDropRedeliver: 0.4, PDuplicate: 0.2}, // classes sum to 1.1
		{PDrop: 1}, // retries could never heal
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	if _, err := New(DefaultConfig(1)); err != nil {
		t.Fatalf("DefaultConfig rejected: %v", err)
	}
}

// TestDecisionsIndependentOfFeedOrder is the determinism core: the verdict
// for each message is a pure function of (seed, identity, attempt), so
// feeding the same message set in a different order yields the identical
// fault log. The retry half sends every identity twice and requires each row
// to name its verdict alone: a plan draws a kind at most once per attempt, so
// two equal rows mean the log lost what tells the attempts apart.
func TestDecisionsIndependentOfFeedOrder(t *testing.T) {
	fwd, rev := fwdRev(40)
	a, b := feedLog(t, feedCfg, fwd), feedLog(t, feedCfg, rev)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fault schedule depends on feed order:\n%v\nvs\n%v", a.Faults, b.Faults)
	}
	if len(a.Faults) == 0 {
		t.Fatal("no faults injected at these probabilities; test proves nothing")
	}

	retries := Config{Seed: 42, PDrop: 0.5, PDelay: 0.3, PReorder: 0.3, MaxDelay: time.Millisecond}
	fwd, rev = fwdRev(80)
	a, b = feedLog(t, retries, fwd), feedLog(t, retries, rev)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("retry schedule depends on feed order:\n%v\nvs\n%v", a.Faults, b.Faults)
	}
	type row struct {
		kind     string
		src, dst int
		what     string
	}
	seen := map[row]bool{}
	for _, f := range a.Faults {
		r := row{f.Kind, f.Src, f.Dst, f.Tag}
		if seen[r] {
			t.Fatalf("two faults recorded as %+v: the log does not tell their attempts apart", r)
		}
		seen[r] = true
	}
}

func TestDifferentSeedsDifferentSchedules(t *testing.T) {
	run := func(seed int64) string {
		p, rec := recorded(t, DefaultConfig(seed))
		var s sink
		for i := 0; i < 60; i++ {
			p.Deliver(msg(0, 1, i), s.deliver)
		}
		p.Flush()
		return rec.Fingerprint()
	}
	if run(1) == run(2) {
		t.Fatal("two seeds produced the identical fault schedule over 60 messages")
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different schedules")
	}
}

// TestReorderSwapsPairOrder pins the reorder semantics: with PReorder = 1,
// message 1 is held, message 2 is delivered first, then 1 (the swap), then 3
// is held until the flush timer fires.
func TestReorderSwapsPairOrder(t *testing.T) {
	p, rec := recorded(t, Config{Seed: 5, PReorder: 1, ReorderFlush: 10 * time.Millisecond})
	var s sink
	for i := 1; i <= 3; i++ {
		p.Deliver(msg(0, 1, i), s.deliver)
	}
	waitFor(t, &s, 3) // 3 arrives via the flush timer
	got := s.tags()
	want := []int32{2, 1, 3}
	for k, tag := range got {
		if tag.I != want[k] {
			t.Fatalf("delivery order %v, want I-sequence %v", got, want)
		}
	}
	if c := count(rec, "reorder"); c != 3 {
		t.Fatalf("reorder count = %d, want 3 (every message drawn; 1 and 3 held, 2 swapped ahead)", c)
	}
}

func TestDropRedeliverArrivesLate(t *testing.T) {
	p, rec := recorded(t, Config{Seed: 1, PDropRedeliver: 1, RedeliverAfter: 5 * time.Millisecond})
	var s sink
	start := time.Now()
	p.Deliver(msg(0, 1, 1), s.deliver)
	if s.len() != 0 {
		t.Fatal("transient drop delivered immediately")
	}
	waitFor(t, &s, 1)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("redelivered after %v, want >= RedeliverAfter", elapsed)
	}
	if c := count(rec, "drop-redeliver"); c != 1 {
		t.Fatalf("drop-redeliver count = %d, want 1", c)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	p := mustPlan(t, Config{Seed: 1, PDuplicate: 1, MaxDelay: time.Millisecond})
	var s sink
	p.Deliver(msg(0, 1, 1), s.deliver)
	waitFor(t, &s, 2)
	tags := s.tags()
	if tags[0] != tags[1] {
		t.Fatalf("duplicate carries a different tag: %v vs %v", tags[0], tags[1])
	}
}

func TestPermanentDropNeverDelivers(t *testing.T) {
	// PDrop just under 1 with a fixed seed: find a message the seed drops
	// and check it stays dropped.
	p, rec := recorded(t, Config{Seed: 3, PDrop: 0.99})
	var s sink
	for i := 0; i < 20; i++ {
		p.Deliver(msg(0, 1, i), s.deliver)
	}
	drops := count(rec, "drop")
	if drops == 0 {
		t.Fatal("seed 3 dropped nothing at PDrop=0.99")
	}
	time.Sleep(10 * time.Millisecond)
	if got := s.len(); got != 20-drops {
		t.Fatalf("delivered %d of 20 with %d drops", got, drops)
	}
}

func TestCrashLookup(t *testing.T) {
	p := mustPlan(t, Config{Seed: 1, CrashAtTask: map[int]int{2: 5}})
	if got := p.CrashTask(2); got != 5 {
		t.Fatalf("CrashTask(2) = %d, want 5", got)
	}
	if got := p.CrashTask(0); got != -1 {
		t.Fatalf("CrashTask(0) = %d, want -1", got)
	}
}

// TestParseCrash: exactly "rank@task" parses; everything else — a second
// directive, trailing text, a third field, surrounding space — is rejected
// whole instead of parsed as far as it goes.
func TestParseCrash(t *testing.T) {
	if got, err := ParseCrash("5@10", 23); err != nil || len(got) != 1 || got[5] != 10 {
		t.Fatalf(`ParseCrash("5@10", 23) = %v, %v; want map[5:10]`, got, err)
	}
	for _, tc := range []struct{ spec, want string }{
		{"junk", "want rank@task"},
		{"", "want rank@task"},
		{"5@", "want rank@task"},
		{"@10", "want rank@task"},
		{"5@10,9@20", "want rank@task"},
		{"5@10xyz", "want rank@task"},
		{"1@2@3", "want rank@task"},
		{"5@10 ", "want rank@task"},
		{"23@1", "rank outside 0..22"},
		{"-1@1", "rank outside 0..22"},
		{"1@-2", "negative task"},
	} {
		if got, err := ParseCrash(tc.spec, 23); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseCrash(%q, 23) = %v, %v; want an error naming %q", tc.spec, got, err, tc.want)
		}
	}
}

func TestBindMirrorsFaultsIntoRecorder(t *testing.T) {
	p, rec := recorded(t, Config{Seed: 1, PDelay: 1, MaxDelay: time.Millisecond})
	var s sink
	p.Deliver(msg(0, 1, 1), s.deliver)
	waitFor(t, &s, 1)
	if len(rec.Faults) != 1 || rec.Faults[0].Kind != "delay" {
		t.Fatalf("recorder faults = %+v, want one delay", rec.Faults)
	}
	if what := rec.Faults[0].Tag; !strings.HasPrefix(what, "(1,0)v0 attempt 0 delay ") {
		t.Fatalf("delay recorded as %q: want the tag, the attempt and the sampled delay", what)
	}
}
