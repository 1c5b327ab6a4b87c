package runtime

import (
	"sort"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/tile"
)

// protoScenario is one (graph, distribution, kernel) configuration the
// protocol fuzzer drives through a whitebox engine.
type protoScenario struct {
	g    dag.Graph
	d    dist.Distribution
	b    int
	gen  func(i, j int) *tile.Tile
	kern Kernel
}

func luScenario() protoScenario {
	return protoScenario{
		g:    dag.NewLU(4),
		d:    dist.NewTwoDBC(2, 2),
		b:    3,
		gen:  GenDiagDominant(4, 3, 9),
		kern: LUKernel,
	}
}

// sequentialSnapshots executes the whole graph on one address space in
// dependency order and captures every published (tile, version) right after
// its write — the payloads a perfect network would deliver — plus the final
// content of every tile.
func sequentialSnapshots(t testing.TB, sc protoScenario, ver []int32) (map[cluster.Tag]*tile.Tile, map[[2]int]*tile.Tile) {
	t.Helper()
	tiles := map[[2]int]*tile.Tile{}
	dag.ForEachTask(sc.g, func(tk dag.Task) {
		oi, oj := sc.g.OutputTile(tk)
		if tiles[[2]int{oi, oj}] == nil {
			tiles[[2]int{oi, oj}] = sc.gen(oi, oj)
		}
	})
	n := sc.g.NumTasks()
	indeg := make([]int, n)
	var queue []int
	dag.ForEachTask(sc.g, func(tk dag.Task) {
		id := sc.g.ID(tk)
		indeg[id] = sc.g.NumDependencies(tk)
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	})
	snaps := map[cluster.Tag]*tile.Tile{}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		tk := sc.g.TaskOf(id)
		oi, oj := sc.g.OutputTile(tk)
		out := tiles[[2]int{oi, oj}]
		var ins []*tile.Tile
		sc.g.InputTiles(tk, func(i, j int) {
			// Readers consume the version their dependency produced, which an
			// in-place sequential sweep may already have overwritten — resolve
			// through the snapshots exactly like a remote consumer would.
			if v := inputVersion(sc.g, ver, tk, i, j); v >= 0 {
				if s := snaps[cluster.Tag{I: int32(i), J: int32(j), V: v}]; s != nil {
					ins = append(ins, s)
					return
				}
			}
			ins = append(ins, tiles[[2]int{i, j}])
		})
		if err := sc.kern(tk, out, ins); err != nil {
			t.Fatalf("sequential reference kernel %v: %v", tk, err)
		}
		snaps[cluster.Tag{I: int32(oi), J: int32(oj), V: ver[id]}] = out.Clone()
		sc.g.Successors(tk, func(s dag.Task) {
			sid := sc.g.ID(s)
			if indeg[sid]--; indeg[sid] == 0 {
				queue = append(queue, sid)
			}
		})
	}
	return snaps, tiles
}

// byteAt cycles through the fuzz input (zero when empty).
func byteAt(data []byte, k int) byte {
	if len(data) == 0 {
		return 0
	}
	return data[k%len(data)]
}

// driveEngine feeds one node's awaited arrivals in a fuzz-chosen order
// through real cluster messages, pumping the engine's ready queue
// synchronously after each delivery. Whatever the order, the node must
// finish all owned tasks, produce exactly the sequential factorization and
// release every received payload — never panic, never double-release (its
// refcounts are live because the messages come from a real Comm).
func driveEngine(t *testing.T, sc protoScenario, rank int, data []byte) {
	snaps, finals := sequentialSnapshots(t, sc, outputVersions(sc.g))

	cl := cluster.New(sc.d.Nodes())
	defer cl.Close()
	e := testEngine(t, rank, cl, sc.g, sc.d, sc.b, sc.gen, sc.kern)
	if len(e.remaining) == 0 {
		t.Fatalf("rank %d owns nothing; scenario proves nothing", rank)
	}

	// Deterministic base order of awaited arrivals, then a fuzz-driven
	// Fisher–Yates shuffle.
	var tags []cluster.Tag
	_, last := e.pl.Tasks(sc.d.Nodes() - 1)
	for pt := int32(0); pt < last; pt++ {
		if e.slotOf(pt) >= 0 {
			tags = append(tags, e.tagOf(pt))
		}
	}
	sort.Slice(tags, func(a, b int) bool {
		x, y := tags[a], tags[b]
		if x.I != y.I {
			return x.I < y.I
		}
		if x.J != y.J {
			return x.J < y.J
		}
		return x.V < y.V
	})
	for i := len(tags) - 1; i > 0; i-- {
		j := int(byteAt(data, len(tags)-1-i)) % (i + 1)
		tags[i], tags[j] = tags[j], tags[i]
	}

	popped := 0
	pump := func() {
		for !e.ready.Empty() {
			jb := e.resolve(0, e.ready.Pop())
			popped++
			if err := sc.kern(jb.task, jb.out, jb.inputs); err != nil {
				t.Fatalf("kernel %v: %v", jb.task, err)
			}
			e.onComplete(jb.t)
		}
	}
	for k, rem := range e.remaining {
		if rem == 0 {
			e.pushReady(e.lo + int32(k))
		}
	}
	pump()

	// Deliveries travel through a real Comm, so payloads are shared clones
	// with live refcounts, each released exactly once by its last reader.
	sender := cl.Comm((rank + 1) % sc.d.Nodes())
	for _, tag := range tags {
		pay := snaps[tag]
		if pay == nil {
			t.Fatalf("no published snapshot for awaited tag %v", tag)
		}
		sender.SendAll([]int{rank}, tag, pay)
		msg, ok := cl.Comm(rank).Recv()
		if !ok {
			t.Fatal("mailbox closed mid-test")
		}
		if err := e.onArrival(msg); err != nil {
			t.Fatalf("arrival %v rejected: %v", msg.Tag, err)
		}
		pump()
	}

	if popped != len(e.remaining) {
		t.Fatalf("completed %d of %d owned tasks after all deliveries", popped, len(e.remaining))
	}
	for k, rem := range e.remaining {
		if rem != 0 {
			t.Fatalf("task %v still has %d unresolved deps", e.pl.Task(e.lo+int32(k)), rem)
		}
	}
	openReaders := 0
	for _, n := range e.readers {
		if n > 0 {
			openReaders++
		}
	}
	if e.held != 0 || openReaders != 0 {
		t.Fatalf("release leak: %d retained tiles, %d reader counts after completion",
			e.held, openReaders)
	}
	for k, got := range e.tiles {
		i, j := e.pl.TileCoords(e.tileLo + int32(k))
		if !got.EqualApprox(finals[[2]int{i, j}], 0) {
			t.Fatalf("owned tile (%d,%d) diverged from the sequential factorization", i, j)
		}
	}
}

// FuzzVersionProtocol is the property-based attack on the Tag/version
// protocol: any order of one node's deliveries must never panic, never
// double-release a shared payload, and always converge to the sequential
// factorization. (Its seeds date from when the input also chose duplicates;
// each now picks one order.)
func FuzzVersionProtocol(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x40})
	f.Add([]byte{0x60, 0x40, 0x80, 0x60})
	f.Add([]byte{0x01, 0x80, 0x7f, 0xff, 0x03})
	f.Add([]byte("reorder and duplicate everything, please"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		driveEngine(t, luScenario(), 1, data)
	})
}
