package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"anybc/internal/dag"
)

func sampleRecorder() *Recorder {
	r := &Recorder{}
	t1 := dag.Task{Kind: dag.GETRF, L: 0, I: 0, J: 0}
	t2 := dag.Task{Kind: dag.TRSMCol, L: 0, I: 1}
	r.RecordTask(0, 0, t1, 0, 1)
	r.RecordTask(0, 0, t2, 1, 3)
	r.RecordTask(1, 0, t2, 0.5, 2)
	r.RecordMessage(0, 1, 1, 1.5, 64)
	return r
}

func TestMakespanAndBusy(t *testing.T) {
	r := sampleRecorder()
	if mk := r.Makespan(); mk != 3 {
		t.Fatalf("Makespan = %v, want 3", mk)
	}
	busy := r.BusyPerNode(2)
	if len(busy) != 2 || busy[0] != 3 || busy[1] != 1.5 {
		t.Fatalf("BusyPerNode = %v", busy)
	}
}

// TestBusyPerNodeIdleNodes: trailing idle nodes must appear with zero busy
// time instead of being truncated, and events beyond p still extend the
// output.
func TestBusyPerNodeIdleNodes(t *testing.T) {
	r := sampleRecorder() // tasks on nodes 0 and 1 only
	busy := r.BusyPerNode(5)
	if len(busy) != 5 {
		t.Fatalf("BusyPerNode(5) length %d, want 5", len(busy))
	}
	for n := 2; n < 5; n++ {
		if busy[n] != 0 {
			t.Fatalf("idle node %d busy %v, want 0", n, busy[n])
		}
	}
	if got := r.BusyPerNode(1); len(got) != 2 {
		t.Fatalf("BusyPerNode(1) length %d, want 2 (events beyond p)", len(got))
	}
	u := r.Utilization(1, 4)
	if len(u) != 4 || u[2] != 0 || u[3] != 0 {
		t.Fatalf("Utilization(1, 4) = %v, want trailing zeros", u)
	}
}

func TestKindBreakdown(t *testing.T) {
	r := sampleRecorder()
	kb := r.KindBreakdown()
	if kb["GETRF"] != 1 || kb["TRSM-col"] != 3.5 {
		t.Fatalf("KindBreakdown = %v", kb)
	}
}

func TestUtilization(t *testing.T) {
	r := sampleRecorder()
	u := r.Utilization(1, 2)
	if math.Abs(u[0]-1) > 1e-12 || math.Abs(u[1]-0.5) > 1e-12 {
		t.Fatalf("Utilization = %v", u)
	}
	if got := r.Utilization(0, 2); got[0] != 0 {
		t.Fatal("zero workers should give zero utilization")
	}
}

func TestValidate(t *testing.T) {
	r := sampleRecorder()
	if err := r.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Recorder{}
	bad.RecordTask(0, 0, dag.Task{Kind: dag.GETRF}, 0, 2)
	bad.RecordTask(0, 0, dag.Task{Kind: dag.GETRF, L: 1}, 1, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("overlapping slot accepted")
	}
	neg := &Recorder{}
	neg.RecordTask(0, 0, dag.Task{}, 2, 1)
	if err := neg.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	badMsg := &Recorder{}
	badMsg.RecordMessage(0, 1, 2, 1, 8)
	if err := badMsg.Validate(); err == nil {
		t.Fatal("time-travelling message accepted")
	}
}

// TestStallRecording: stall intervals are recorded as given, each weighted by
// its idle share, and Validate rejects negative-duration and
// out-of-range-weight stalls.
func TestStallRecording(t *testing.T) {
	r := &Recorder{}
	r.RecordStall(1, 0, 0.5, 1)
	r.RecordStall(3, 0, 1, 0.25) // 1 of 4 workers idle: quarter weight
	want := []StallEvent{{Node: 1, Start: 0, End: 0.5, Weight: 1}, {Node: 3, Start: 0, End: 1, Weight: 0.25}}
	if !reflect.DeepEqual(r.Stalls, want) {
		t.Fatalf("Stalls = %v, want %v", r.Stalls, want)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("valid stalls rejected: %v", err)
	}
	bad := &Recorder{}
	bad.RecordStall(0, 2, 1, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("negative-duration stall accepted")
	}
	badW := &Recorder{}
	badW.RecordStall(0, 1, 2, 1.5)
	if err := badW.Validate(); err == nil {
		t.Fatal("stall weight above 1 accepted")
	}
}

func TestCSVExports(t *testing.T) {
	r := sampleRecorder()
	var b strings.Builder
	if err := r.GanttCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "node,slot,kind,task,start,end") ||
		!strings.Contains(b.String(), "GETRF") {
		t.Fatalf("GanttCSV output: %q", b.String())
	}
	b.Reset()
	if err := r.MessagesCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "src,dst") || !strings.Contains(b.String(), "64") {
		t.Fatalf("MessagesCSV output: %q", b.String())
	}
}

// TestFingerprintStructural: the fingerprint must ignore wall-clock jitter
// and recording order but change on any structural difference.
func TestFingerprintStructural(t *testing.T) {
	t1 := dag.Task{Kind: dag.GETRF}
	t2 := dag.Task{Kind: dag.TRSMCol, I: 1}

	a := &Recorder{}
	a.RecordTask(0, 0, t1, 0, 1)
	a.RecordTask(1, 0, t2, 0.5, 2)
	a.RecordMessage(0, 1, 1, 1.5, 64)

	// Same structure: different timings, different event order, different slot.
	b := &Recorder{}
	b.RecordMessage(0, 1, 2, 2.5, 64)
	b.RecordTask(1, 1, t2, 1.5, 3)
	b.RecordTask(0, 0, t1, 1, 2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on timing or recording order")
	}

	// One extra message changes it.
	c := &Recorder{}
	c.RecordTask(0, 0, t1, 0, 1)
	c.RecordTask(1, 0, t2, 0.5, 2)
	c.RecordMessage(0, 1, 1, 1.5, 64)
	c.RecordMessage(0, 1, 1, 1.5, 64)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint missed an extra message")
	}

	// A task migrating nodes changes it.
	e := &Recorder{}
	e.RecordTask(0, 0, t1, 0, 1)
	e.RecordTask(0, 0, t2, 0.5, 2) // t2 on node 0 instead of 1
	e.RecordMessage(0, 1, 1, 1.5, 64)
	if a.Fingerprint() == e.Fingerprint() {
		t.Fatal("fingerprint missed a task moving nodes")
	}
}
