package simulate

import (
	"math"
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/trace"
)

const kRegress dag.Kind = 210

// fanGraph is a reduction DAG for regression tests: `leaves` independent
// tasks each write tile (id+1, 0), and one root task (the last id) reads all
// of them and writes tile (0, 0).
func fanGraph(leaves int) dag.Graph {
	return dag.Build(dag.Program{
		Name:  "fan",
		Tiles: leaves + 1,
		Tasks: func(_ int, submit func(dag.Task)) {
			for id := 0; id <= leaves; id++ {
				submit(dag.Task{Kind: kRegress, I: int32(id)})
			}
		},
		OutputTile: func(t dag.Task) (int, int) {
			if int(t.I) == leaves {
				return 0, 0
			}
			return int(t.I) + 1, 0
		},
		InputTiles: func(t dag.Task, visit func(i, j int)) {
			if int(t.I) == leaves {
				for id := 0; id < leaves; id++ {
					visit(id+1, 0)
				}
			}
		},
		Flops: func(dag.Task, int) float64 { return 1 },
	})
}

// litDist maps tiles to nodes through a literal function.
type litDist struct {
	p     int
	owner func(i, j int) int
}

func (d litDist) Name() string       { return "lit" }
func (d litDist) Nodes() int         { return d.p }
func (d litDist) Owner(i, j int) int { return d.owner(i, j) }

var _ dist.Distribution = litDist{}

// TestWideFanIn: a task with more than 127 dependencies must execute. The
// dependency counters were once int8, so 200 predecessors wrapped to -56 and
// the root task never became ready — a spurious "dependency deadlock".
func TestWideFanIn(t *testing.T) {
	g := fanGraph(200)
	d := litDist{p: 2, owner: func(i, j int) int {
		if i == 0 {
			return 0
		}
		return (i - 1) % 2
	}}
	m := Machine{Workers: 4, FlopsPerWorker: 1e9, LinkBandwidth: 1e9, Latency: 1e-6}
	res, err := Run(g, 8, d, m, Options{Scheduler: FIFOOrder})
	if err != nil {
		t.Fatalf("wide fan-in graph failed: %v", err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// Half the leaf tiles live on node 1 and cross to node 0.
	if res.Messages != 100 {
		t.Fatalf("%d messages, want 100", res.Messages)
	}
}

// TestBisectionDepartTime: with BisectionBandwidth set, a recorded message's
// departure must stay at the instant the sender NIC starts transmitting. The
// fabric serialization delays arrival only; it used to be folded into the
// departure, which misplaced Gantt arrows and inflated apparent NIC busy
// time.
func TestBisectionDepartTime(t *testing.T) {
	// Two producers on nodes 0 and 1 finish at t=1 and both send one 8-byte
	// tile to node 2. NICs transfer in 1s; the shared fabric adds 2s per
	// message and serializes them.
	g := fanGraph(2)
	d := litDist{p: 3, owner: func(i, j int) int {
		if i == 0 {
			return 2
		}
		return i - 1
	}}
	m := Machine{
		Workers:            1,
		FlopsPerWorker:     1, // dur = 1 flop / 1 flop/s = 1s
		LinkBandwidth:      8, // 8 bytes / 8 B/s = 1s per NIC pass
		BisectionBandwidth: 4, // + 2s fabric crossing, serialized
		Latency:            0,
	}
	rec := &trace.Recorder{}
	if _, err := Run(g, 1, d, m, Options{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if len(rec.Messages) != 2 {
		t.Fatalf("%d messages recorded, want 2", len(rec.Messages))
	}
	for _, msg := range rec.Messages {
		// Each sender's NIC is idle when its producer finishes, so the true
		// departure is the task end — not shifted by the fabric queue.
		if math.Abs(msg.Depart-1) > 1e-12 {
			t.Errorf("message %d->%d departs at %v, want 1 (fabric delay leaked into departure)",
				msg.Src, msg.Dst, msg.Depart)
		}
	}
	// The fabric still serializes the two crossings: arrivals 2s apart.
	a0, a1 := rec.Messages[0].Arrive, rec.Messages[1].Arrive
	if a1 < a0 {
		a0, a1 = a1, a0
	}
	if math.Abs(a1-a0-2) > 1e-12 {
		t.Errorf("arrivals %v and %v: want 2s fabric serialization between them", a0, a1)
	}
}
