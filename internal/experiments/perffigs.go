package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
)

// PerfPoint is one point of a performance study: a distribution (Series) at
// matrix size N, with simulated aggregate and per-node GFlop/s.
type PerfPoint struct {
	N        int
	P        int
	Series   string
	GFlops   float64
	PerNode  float64
	Messages int64
	Makespan float64
}

// simulateOne runs one (graph, distribution) point through the simulator.
func simulateOne(cfg SimConfig, symmetric bool, n int, d dist.Distribution) (PerfPoint, error) {
	mt := n / cfg.B
	if mt < 1 {
		return PerfPoint{}, fmt.Errorf("experiments: N=%d below one tile of %d", n, cfg.B)
	}
	var g dag.Graph
	if symmetric {
		g = dag.NewCholesky(mt)
	} else {
		g = dag.NewLU(mt)
	}
	d = freshSymmetric(d)
	res, err := simulate.Run(g, cfg.B, d, cfg.Machine, simulate.Options{})
	if err != nil {
		return PerfPoint{}, err
	}
	return PerfPoint{
		N:        n,
		P:        d.Nodes(),
		Series:   d.Name(),
		GFlops:   res.GFlops(),
		PerNode:  res.GFlops() / float64(d.Nodes()),
		Messages: res.Messages,
		Makespan: res.Makespan,
	}, nil
}

// simPoint is one independent simulation of a figure: distribution d at
// matrix size n, reported under node count p (0: d's own).
type simPoint struct {
	n int
	d dist.Distribution
	p int
}

// simulateAll runs the points through inParallel — each point builds its own
// graph, diagonal resolver and simulator state, so they share nothing that
// is written — and returns their results in the order given; of several
// failures, the first in that order.
func simulateAll(cfg SimConfig, symmetric bool, pts []simPoint) ([]PerfPoint, error) {
	out := make([]PerfPoint, len(pts))
	errs := make([]error, len(pts))
	inParallel(len(pts), func(i int) {
		out[i], errs[i] = simulateOne(cfg, symmetric, pts[i].n, pts[i].d)
		if pts[i].p != 0 {
			out[i].P = pts[i].p
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// inParallel calls run(i) for every i < n on at most GOMAXPROCS goroutines.
// Each simulation is two goroutines while it runs: simulate.Run infers on a
// producer of its own alongside its event loop, so a sweep can have up to
// twice GOMAXPROCS runnable. Indices are handed out from the back: sweeps
// list their largest point last, and the longest job should not be the one
// left running alone.
func inParallel(n int, run func(i int)) {
	var started atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := n - int(started.Add(1))
				if i < 0 {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// sweep simulates each distribution at every N of the config.
func sweep(cfg SimConfig, symmetric bool, ds []dist.Distribution) ([]PerfPoint, error) {
	var pts []simPoint
	for _, n := range cfg.Ns {
		for _, d := range ds {
			pts = append(pts, simPoint{n: n, d: d})
		}
	}
	return simulateAll(cfg, symmetric, pts)
}

// Figure1 reproduces Figure 1: LU performance of 2DBC with different grid
// shapes for up to 23 nodes (23x1, 11x2, 7x3, 5x4, 4x4) across matrix sizes.
func Figure1(cfg SimConfig) ([]PerfPoint, error) {
	ds := []dist.Distribution{
		dist.NewTwoDBC(23, 1),
		dist.NewTwoDBC(11, 2),
		dist.NewTwoDBC(7, 3),
		dist.NewTwoDBC(5, 4),
		dist.NewTwoDBC(4, 4),
	}
	return sweep(cfg, false, ds)
}

// Figure5 reproduces Figure 5: LU with at most P = 23 nodes — G-2DBC on all
// 23 versus the 2DBC fallbacks (23x1, 7x3 on 21, 4x4 on 16).
func Figure5(cfg SimConfig) ([]PerfPoint, error) {
	ds := []dist.Distribution{
		dist.NewG2DBC(23),
		dist.NewTwoDBC(23, 1),
		dist.NewTwoDBC(7, 3),
		dist.NewTwoDBC(4, 4),
	}
	return sweep(cfg, false, ds)
}

// Figure6 reproduces Figure 6: LU with at most P = 39 nodes — G-2DBC on all
// 39 versus 2DBC 13x3 (39 nodes) and 6x6 (36 nodes).
func Figure6(cfg SimConfig) ([]PerfPoint, error) {
	ds := []dist.Distribution{
		dist.NewG2DBC(39),
		dist.NewTwoDBC(13, 3),
		dist.NewTwoDBC(6, 6),
	}
	return sweep(cfg, false, ds)
}

// ScalingPs lists the node counts of the strong-scaling study (Figure 7),
// spanning the paper's experimental cases.
var ScalingPs = []int{16, 20, 21, 22, 23, 25, 28, 30, 31, 32, 35, 36, 39}

// Figure7a reproduces Figure 7a: LU strong scaling at fixed N — the best
// 2DBC using at most P nodes versus G-2DBC on all P.
func Figure7a(cfg SimConfig, ps []int) ([]PerfPoint, error) {
	var pts []simPoint
	for _, p := range ps {
		// Key scaling series by the *available* node count.
		pts = append(pts,
			simPoint{n: cfg.ScalingN, d: dist.Best2DBCAtMost(p), p: p},
			simPoint{n: cfg.ScalingN, d: dist.NewG2DBC(p), p: p})
	}
	return simulateAll(cfg, false, pts)
}

// Figure7b reproduces Figure 7b: Cholesky strong scaling at fixed N — the
// best SBC using at most P nodes versus GCR&M on all P.
func Figure7b(cfg SimConfig, ps []int) ([]PerfPoint, error) {
	var pts []simPoint
	for _, p := range ps {
		gcrmD, err := core.New(core.GCRM, p, core.Options{})
		if err != nil {
			return nil, err
		}
		pts = append(pts,
			simPoint{n: cfg.ScalingN, d: dist.BestSBCAtMost(p), p: p},
			simPoint{n: cfg.ScalingN, d: gcrmD, p: p})
	}
	return simulateAll(cfg, true, pts)
}

// Figure11 reproduces Figure 11: Cholesky with at most P = 31 nodes — GCR&M
// on all 31 versus the best SBC (8x8 pattern, 28 nodes).
func Figure11(cfg SimConfig) ([]PerfPoint, error) {
	gcrmD, err := core.New(core.GCRM, 31, core.Options{})
	if err != nil {
		return nil, err
	}
	return sweep(cfg, true, []dist.Distribution{gcrmD, dist.BestSBCAtMost(31)})
}

// Figure12 reproduces Figure 12: Cholesky with at most P = 35 nodes — GCR&M
// on all 35 versus the best SBC (32 nodes).
func Figure12(cfg SimConfig) ([]PerfPoint, error) {
	gcrmD, err := core.New(core.GCRM, 35, core.Options{})
	if err != nil {
		return nil, err
	}
	return sweep(cfg, true, []dist.Distribution{gcrmD, dist.BestSBCAtMost(35)})
}
