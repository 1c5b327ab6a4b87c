package plan

import (
	"strings"
	"testing"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
)

// TestCompileLayout checks the index spaces of a small plan from the inside:
// the per-node ranges partition tasks, tiles and slots; every tile's writer
// list is dense in versions; every slot sits in its consumer's range and is
// the one its producer's destination list names. (The task-by-task
// comparison with the Graph interface, over every graph the runtime
// executes, is internal/runtime's TestPlanEqualsGraph.)
func TestCompileLayout(t *testing.T) {
	g, d := dag.NewLU(5), dist.NewTwoDBC(2, 2)
	p, err := Compile(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.task) != g.NumTasks() || p.Nodes() != 4 {
		t.Fatalf("%d tasks on %d nodes", len(p.task), p.Nodes())
	}
	for _, off := range [][]int32{p.nodeOff, p.tileOff, p.slotOff} {
		if len(off) != 5 || off[0] != 0 {
			t.Fatalf("range table %v does not start at 0 with one range per node", off)
		}
	}
	if int(p.nodeOff[4]) != len(p.task) || int(p.tileOff[4]) != len(p.tileI) || int(p.slotOff[4]) != len(p.slotReaders) {
		t.Fatal("per-node ranges do not cover the tables")
	}
	if len(p.tileI) != 25 {
		t.Fatalf("%d tiles, LU(5) writes 25", len(p.tileI))
	}
	for tl := int32(0); tl < int32(len(p.tileI)); tl++ {
		for v := int32(0); v < p.wrOff[tl+1]-p.wrOff[tl]; v++ {
			w := p.writer[p.wrOff[tl]+v]
			if w < 0 || p.out[w] != tl || p.ver[w] != v {
				t.Fatalf("tile %d version %d: writer %d", tl, v, w)
			}
			if got := p.Producer(p.tileI[tl], p.tileJ[tl], v); got != w {
				t.Fatalf("Producer(%d,%d,v%d) = %d, want %d", p.tileI[tl], p.tileJ[tl], v, got, w)
			}
		}
	}
	if p.Producer(0, 0, 9) != -1 || p.Producer(7, 0, 0) != -1 || p.Producer(-1, 0, 0) != -1 {
		t.Fatal("Producer invented a task for a version or tile nobody writes")
	}
	// Every slot is one (producer, consumer node) pair: a task of another
	// node names it, and no other task does.
	producer := make([]int32, len(p.slotReaders))
	for s := range producer {
		producer[s] = -1
	}
	for prod := int32(0); prod < int32(len(p.task)); prod++ {
		for _, rank := range p.Dsts(prod) {
			s := p.SlotAt(prod, rank)
			if lo, hi := p.Slots(rank); s < lo || s >= hi || producer[s] >= 0 {
				t.Fatalf("task %d names slot %d of node %d, outside [%d,%d) or named by task %d too", prod, s, rank, lo, hi, producer[s])
			}
			if lo, hi := p.Tasks(rank); lo <= prod && prod < hi {
				t.Fatalf("task %d of node %d sends itself its output", prod, rank)
			}
			producer[s] = prod
		}
	}
	for rank := 0; rank < 4; rank++ {
		taskLo, taskHi := p.Tasks(rank)
		own := func(task int32) bool { return taskLo <= task && task < taskHi }
		lo, hi := p.Slots(rank)
		for s := lo; s < hi; s++ {
			if producer[s] < 0 {
				t.Fatalf("slot %d of node %d awaits no task's output", s, rank)
			}
			for _, w := range p.Waiters(s) {
				if !own(w) {
					t.Fatalf("slot %d of node %d releases task %d of another node", s, rank, w)
				}
			}
		}
	}
}

// TestProductPlansSendOnlyLastVersions is the census behind the send path's
// one rule: every plan the product runs — LU and Cholesky under every scheme
// that constructs at P = 2…64, mt 12 and 24 — compiles, so none reads a
// remote tile at an earlier version, and every task with a remote consumer
// writes its tile's last version. Replicated LU is simulated only, so no
// engine runs its plan.
func TestProductPlansSendOnlyLastVersions(t *testing.T) {
	plans, senders := 0, 0
	check := func(g dag.Graph, d dist.Distribution) {
		p, err := Compile(g, d)
		if err != nil {
			t.Fatalf("%s under %s: %v", g.Name(), d.Name(), err)
		}
		plans++
		for tk := int32(0); tk < int32(len(p.task)); tk++ {
			if len(p.Dsts(tk)) == 0 {
				continue
			}
			senders++
			if i, j := p.TileCoords(p.Out(tk)); p.Producer(int32(i), int32(j), p.Version(tk)+1) >= 0 {
				t.Fatalf("%s under %s: %v sends version %d of tile (%d, %d), not its last",
					g.Name(), d.Name(), p.Task(tk), p.Version(tk), i, j)
			}
		}
	}
	for P := 2; P <= 64; P++ {
		for _, s := range core.Schemes() {
			d, err := core.New(s, P, core.Options{})
			if err != nil && (s == core.SBC || s == core.STSScheme) {
				continue // they exist at some P only
			} else if err != nil {
				t.Fatal(err)
			}
			for _, mt := range []int{12, 24} {
				check(dag.NewLU(mt), d)
				check(dag.NewCholesky(mt), d)
			}
		}
	}
	t.Logf("%d plans, %d sending tasks, all of them of a last version", plans, senders)
}

func TestCompileRejectsOwnerOutOfRange(t *testing.T) {
	_, err := Compile(dag.NewCholesky(3), badDist{})
	if err == nil || !strings.Contains(err.Error(), "outside 0..1") {
		t.Fatalf("expected out-of-range owner error, got %v", err)
	}
}

type badDist struct{}

func (badDist) Name() string       { return "bad" }
func (badDist) Nodes() int         { return 2 }
func (badDist) Owner(i, j int) int { return i + j }
