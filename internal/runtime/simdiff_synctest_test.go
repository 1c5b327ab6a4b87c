//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package runtime

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/simulate"
	"anybc/internal/tile"
)

// The differential's machine: b = 500 tiles on 40 GFlop/s workers, the
// paper's (simulate.PaperMachine), and its network where a cell has one.
const (
	diffB     = 500
	diffFlops = 40e9
	diffBytes = 8 * diffB * diffB
)

// diffCell is one (graph, distribution, workers) point of the differential,
// with how far its gap may go: compute-only, and on the paper's network.
type diffCell struct {
	g             dag.Graph
	d             dist.Distribution
	workers       int
	band, netBand float64
}

// String names the cell in one subtest level: "LU/c=2" loses its slash.
func (s diffCell) String() string {
	return fmt.Sprintf("%s mt=%d %s W=%d", strings.ReplaceAll(s.g.Name(), "/", " "), s.g.Tiles(), s.d.Name(), s.workers)
}

// nicNet is the simulator's NIC model (simulate's sendHop) as a
// cluster.Network: every hop claims the sender's out-NIC for one tile's
// transfer time, crosses the latency, then claims the receiver's in-NIC, and
// is delivered when that ends. Messages carry 1×1 tiles; the model charges
// each the b = 500 tile it stands for.
type nicNet struct {
	mu      sync.Mutex
	epoch   time.Time
	bw, lat float64   // bytes/s, s
	out, in []float64 // when each NIC is next free, in seconds since epoch
}

func newNICNet(p int, bw, lat float64) *nicNet {
	return &nicNet{epoch: time.Now(), bw: bw, lat: lat, out: make([]float64, p), in: make([]float64, p)}
}

func (n *nicNet) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	n.mu.Lock()
	now := time.Since(n.epoch).Seconds()
	xfer := diffBytes / n.bw
	sendEnd := max(now, n.out[msg.From]) + xfer
	n.out[msg.From] = sendEnd
	recvEnd := max(sendEnd+n.lat, n.in[msg.To]) + xfer
	n.in[msg.To] = recvEnd
	n.mu.Unlock()
	go func() {
		time.Sleep(time.Duration((recvEnd - now) * 1e9))
		deliver(msg)
	}()
}

// virtualMakespan runs s on the real runtime inside a synctest bubble, where
// every kernel only sleeps its task's b = 500 duration, and returns the run's
// virtual wall-clock. net, when non-nil, builds the cluster's network.
func virtualMakespan(t *testing.T, s diffCell, mode cluster.BroadcastMode, net func(p int) cluster.Network) float64 {
	t.Helper()
	// The bubble's writes reach this goroutine through a channel made
	// outside it: Go 1.24's race detector sees no edge in synctest.Run's own
	// wait.
	type outcome struct {
		makespan time.Duration
		err      error
	}
	done := make(chan outcome, 1)
	synctest.Run(func() {
		opt := Options{Workers: s.workers}
		if net != nil {
			cl := cluster.NewWithOptions(s.d.Nodes(), cluster.Options{Net: net(s.d.Nodes()), Broadcast: mode})
			defer cl.Close()
			opt.Cluster = cl
		}
		kern := func(task dag.Task, _ *tile.Tile, _ []*tile.Tile) error {
			time.Sleep(time.Duration(s.g.Flops(task, diffB) / diffFlops * 1e9))
			return nil
		}
		gen := func(int, int) *tile.Tile { return tile.New(1, 1) }
		start := time.Now()
		_, err := Run(s.g, s.d, 1, gen, kern, opt, nil)
		done <- outcome{time.Since(start), err}
	})
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.makespan.Seconds()
}

// simulatedMakespan is simulate.Run's prediction for s on the same machine.
// It runs in a bubble of its own: synctest.Run returns only once every
// goroutine started in the bubble has exited, so a simulator producer that
// outlived Run would deadlock it.
func simulatedMakespan(t *testing.T, s diffCell, mode cluster.BroadcastMode, bw, lat float64) float64 {
	t.Helper()
	m := simulate.Machine{Workers: s.workers, FlopsPerWorker: diffFlops, LinkBandwidth: bw, Latency: lat}
	type outcome struct {
		res *simulate.Result
		err error
	}
	done := make(chan outcome, 1) // made outside the bubble, as in virtualMakespan
	synctest.Run(func() {
		res, err := simulate.Run(s.g, diffB, s.d, m, simulate.Options{Broadcast: mode})
		done <- outcome{res, err}
	})
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.res.Makespan
}

// TestSimulatorMatchesRuntime holds the simulator to the runtime's own
// schedule. Inside a synctest bubble time advances only when every goroutine
// is blocked, so a kernel that sleeps its task's modelled duration makes the
// runtime's virtual makespan the schedule's length alone — dispatch order,
// worker count and message timing, with no host noise. Each cell compares
// it with simulate.Run on the same graph and distribution:
//
//   - compute-only (free communication): within 0.5 %, but for the one
//     cell named below;
//   - the paper's network, 12.5 GB/s and 2 µs, flat and tree broadcast:
//     within ±3 %, but for the one cell named below;
//   - a comm-bound network, 1.25 GB/s: logged, not gated.
//
// Whatever gap there is comes from distinct events that share one instant —
// W workers finishing equal kernels together, tiles from several senders
// landing together: the runtime orders them by goroutine scheduling, the
// simulator by event sequence, and the two then break equal-key ties in the
// ready queue differently. Cholesky on GCR&M(35) at W = 4 is banded at ±2 %
// compute-only and ±4 % on the network: each band covers the spread measured
// over at least 400 runs (EXPERIMENTS.md, "Simulator vs runtime", has every
// cell's).
func TestSimulatorMatchesRuntime(t *testing.T) {
	gcrmDist := func(P int) dist.Distribution {
		d, err := core.New(core.GCRM, P, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	shapes := []diffCell{
		{dag.NewLU(12), dist.NewG2DBC(4), 1, 0.005, 0.03},
		{dag.NewLU(16), dist.NewG2DBC(7), 2, 0.005, 0.03},
		{dag.NewLU(24), dist.NewG2DBC(23), 2, 0.005, 0.03},
		{dag.NewLU(40), dist.NewG2DBC(44), 4, 0.005, 0.03},
		{dag.NewCholesky(12), gcrmDist(4), 1, 0.005, 0.03},
		{dag.NewCholesky(24), gcrmDist(23), 2, 0.005, 0.03},
		{dag.NewCholesky(32), gcrmDist(35), 4, 0.02, 0.04},
		{dag.NewLU(24), dist.Best2DBC(23), 2, 0.005, 0.03},
		{dag.NewCholesky(28), dist.NewSBCPair(8), 2, 0.005, 0.03},
	}
	// check logs one cell's gap and gates it at ±band; band 0 only logs.
	check := func(t *testing.T, real, sim, band float64) {
		gap := (real - sim) / sim
		t.Logf("runtime %.6f s, simulator %.6f s, gap %+.3f %%", real, sim, 100*gap)
		if band > 0 && math.Abs(gap) > band {
			t.Errorf("gap %+.3f %% outside ±%.1f %%", 100*gap, 100*band)
		}
	}
	for _, c := range shapes {
		t.Run("compute/"+c.String(), func(t *testing.T) {
			check(t, virtualMakespan(t, c, cluster.BroadcastFlat, nil),
				simulatedMakespan(t, c, cluster.BroadcastFlat, 1e18, 0), c.band)
		})
	}
	for _, n := range []struct {
		name    string
		bw, lat float64
		gated   bool
	}{
		{"12.5GBps", 12.5e9, 2e-6, true},
		{"1.25GBps", 1.25e9, 2e-6, false},
	} {
		for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
			for _, c := range shapes {
				t.Run(fmt.Sprintf("%s/%s/%s", n.name, mode, c), func(t *testing.T) {
					net := func(p int) cluster.Network { return newNICNet(p, n.bw, n.lat) }
					band := 0.0
					if n.gated {
						band = c.netBand
					}
					check(t, virtualMakespan(t, c, mode, net),
						simulatedMakespan(t, c, mode, n.bw, n.lat), band)
				})
			}
		}
	}
}
