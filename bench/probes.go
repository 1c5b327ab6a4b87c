package main

import (
	"math/rand"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/sched"
	"anybc/internal/tile"
)

// probeFloor is the least time a probe repeats its operation for.
const probeFloor = 40 * time.Millisecond

// timeOp repeats op until probeFloor has passed (at least three times) and
// returns the fastest repeat in seconds: the solo rate a layer can reach.
func timeOp(op func()) float64 {
	op() // warm caches and pools
	best := time.Duration(1 << 62)
	deadline := time.Now().Add(probeFloor)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		start := time.Now()
		op()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Seconds()
}

// tileRates are the solo kernel rates in GFlop/s at one tile size, each
// called from a single goroutine (the packed GEMM may still fan out inside).
type tileRates struct {
	gemm, trsm, panel, syrk float64
	lu                      bool
}

// probeTile measures the kernels a factorization of the given kind uses, in
// the variants its Kernel calls.
func probeTile(b int, lu bool) tileRates {
	rng := rand.New(rand.NewSource(1))
	rnd := func() *tile.Tile {
		t := tile.New(b, b)
		t.Random(rng)
		return t
	}
	// A diagonally dominant tile keeps the unpivoted panel kernels stable.
	dom := rnd()
	for i := 0; i < b; i++ {
		dom.Set(i, i, float64(b)+1)
	}
	for i := 0; i < b; i++ {
		for j := 0; j < i; j++ {
			dom.Set(j, i, dom.At(i, j))
		}
	}
	a, bb, c, work := rnd(), rnd(), rnd(), tile.New(b, b)
	rate := func(flops float64, op func()) float64 { return flops / timeOp(op) / 1e9 }
	r := tileRates{lu: lu}
	if lu {
		r.gemm = rate(tile.FlopsGemm(b), func() { tile.Gemm(tile.NoTrans, tile.NoTrans, -1, a, bb, 1, c) })
		r.trsm = rate(tile.FlopsTrsm(b), func() {
			work.CopyFrom(a)
			tile.Trsm(tile.Right, tile.Upper, tile.NoTrans, tile.NonUnit, 1, dom, work)
		})
		r.panel = rate(tile.FlopsGetrf(b), func() {
			work.CopyFrom(dom)
			_ = tile.Getrf(work) // dominant by construction
		})
		return r
	}
	r.gemm = rate(tile.FlopsGemm(b), func() { tile.Gemm(tile.NoTrans, tile.TransT, -1, a, bb, 1, c) })
	r.trsm = rate(tile.FlopsTrsm(b), func() {
		work.CopyFrom(a)
		tile.Trsm(tile.Right, tile.Lower, tile.TransT, tile.NonUnit, 1, dom, work)
	})
	r.panel = rate(tile.FlopsPotrf(b), func() {
		work.CopyFrom(dom)
		_ = tile.Potrf(work) // dominant and symmetric by construction
	})
	r.syrk = rate(tile.FlopsSyrk(b), func() { tile.Syrk(tile.Lower, tile.NoTrans, -1, a, 1, c) })
	return r
}

func (r tileRates) report(v map[string]float64) {
	v["tile.gemm_gflops"], v["tile.trsm_gflops"] = r.gemm, r.trsm
	if r.lu {
		v["tile.getrf_gflops"] = r.panel
	} else {
		v["tile.potrf_gflops"], v["tile.syrk_gflops"] = r.panel, r.syrk
	}
}

// rateOf returns the solo rate in flop/s of the kernel a task kind runs.
func (r tileRates) rateOf(k dag.Kind) float64 {
	switch k {
	case dag.GETRF, dag.POTRF:
		return r.panel * 1e9
	case dag.TRSMCol, dag.TRSMRow, dag.TRSMChol:
		return r.trsm * 1e9
	case dag.SYRK:
		return r.syrk * 1e9
	default:
		return r.gemm * 1e9
	}
}

// computedSeconds is the kernel time of one factorization derived from
// counts: Σ over tasks of flops / solo rate of the task's kernel. It is
// computed, not clocked.
func (r tileRates) computedSeconds(g dag.Graph, b int) float64 {
	total := 0.0
	dag.ForEachTask(g, func(t dag.Task) { total += g.Flops(t, b) / r.rateOf(t.Kind) })
	return total
}

// sink keeps the probes' results alive so their loops are not optimised away.
var sink int

// probeDag sweeps the graph once through every structural query the engine
// and the simulator make.
func probeDag(g dag.Graph, v map[string]float64) {
	s := timeOp(func() {
		dag.ForEachTask(g, func(t dag.Task) {
			g.Dependencies(t, func(dag.Task) { sink++ })
			g.Successors(t, func(dag.Task) { sink++ })
			g.InputTiles(t, func(i, j int) { sink += i + j })
			sink += g.NumDependencies(t) + g.ID(t)
		})
	})
	v["dag.walk_ns_per_task"] = s * 1e9 / float64(g.NumTasks())
}

// probeDist clocks one Owner lookup over the mt×mt tile grid.
func probeDist(d dist.Distribution, mt int, v map[string]float64) {
	s := timeOp(func() {
		for i := 0; i < mt; i++ {
			for j := 0; j < mt; j++ {
				sink += d.Owner(i, j)
			}
		}
	})
	v["dist.owner_ns"] = s * 1e9 / float64(mt*mt)
}

// probeSched pushes the workload's own task keys through the ready heap and
// pops them all.
func probeSched(g dag.Graph, v map[string]float64) {
	var keys []int64
	dag.ForEachTask(g, func(t dag.Task) { keys = append(keys, sched.Key(t)) })
	s := timeOp(func() {
		h := sched.NewHeap(sched.TieLIFO)
		for id, k := range keys {
			h.Push(k, int32(id))
		}
		for !h.Empty() {
			h.Pop()
		}
	})
	v["sched.heap_ns_per_op"] = s * 1e9 / float64(2*len(keys))
}

// probeCluster clocks the transport alone on a private 2-node cluster: one
// b×b tile sent and received, and a burst's bandwidth.
func probeCluster(b int, v map[string]float64) {
	cl := cluster.New(2)
	defer cl.Close()
	src, dst := cl.Comm(0), cl.Comm(1)
	payload := tile.New(b, b)
	sendRecv := func(n int) {
		for i := 0; i < n; i++ {
			src.SendAll([]int{1}, cluster.Tag{I: int32(i)}, payload)
		}
		for i := 0; i < n; i++ {
			msg, _ := dst.Recv()
			msg.Release()
		}
	}
	v["cluster.sendrecv_ns"] = timeOp(func() { sendRecv(1) }) * 1e9
	const burst = 32
	v["cluster.sendall_mb_s"] = float64(burst*payload.Bytes()) / timeOp(func() { sendRecv(burst) }) / 1e6
}
