package simulate

import (
	"testing"

	"anybc/internal/dag"
	"anybc/internal/dist"
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
