package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/matrix"
	"anybc/internal/tile"
	"anybc/internal/trace"
)

// reorderNet is a reliable cluster.Network that perturbs only timing: it
// delivers every hop exactly once, after a delay drawn from its seed in
// [0, maxDelay), on a timer goroutine of its own, so hops overtake one
// another on every link. Which hops overtake depends on the goroutines'
// interleaving, and need not be reproducible: what its tests assert holds for
// any delivery order. inversions counts the deliveries that overtook an
// earlier hop of the same link.
type reorderNet struct {
	maxDelay   time.Duration
	mu         sync.Mutex
	rng        *rand.Rand
	sent, high map[[2]int]int // per (from, to) link: hops sent, and 1 + the latest send position delivered
	inversions int
	pending    sync.WaitGroup // deliveries still on a timer
}

func newReorderNet(seed int64, maxDelay time.Duration) *reorderNet {
	return &reorderNet{maxDelay: maxDelay, rng: rand.New(rand.NewSource(seed)),
		sent: map[[2]int]int{}, high: map[[2]int]int{}}
}

func (n *reorderNet) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	link := [2]int{msg.From, msg.To}
	n.mu.Lock()
	seq := n.sent[link]
	n.sent[link]++
	delay := time.Duration(n.rng.Int63n(int64(n.maxDelay)))
	n.mu.Unlock()
	n.pending.Add(1)
	time.AfterFunc(delay, func() {
		defer n.pending.Done()
		n.mu.Lock()
		if seq+1 < n.high[link] {
			n.inversions++
		} else {
			n.high[link] = seq + 1
		}
		n.mu.Unlock()
		deliver(msg)
	})
}

// reordered returns Options whose shared cluster delivers through a fresh
// reorderNet of seed (delays below 200 µs), in the given broadcast mode. The
// cluster closes when the test ends, once no delivery is left on a timer.
func reordered(t *testing.T, p int, mode cluster.BroadcastMode, seed int64, workers int) (Options, *reorderNet) {
	net := newReorderNet(seed, 200*time.Microsecond)
	cl := cluster.NewWithOptions(p, cluster.Options{Net: net, Broadcast: mode})
	t.Cleanup(func() {
		net.pending.Wait()
		cl.Close()
	})
	return Options{Workers: workers, Cluster: cl}, net
}

// checkReordered fails the test if net delivered every link in send order:
// the run then proved nothing about reordering.
func checkReordered(t *testing.T, net *reorderNet) {
	t.Helper()
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.inversions == 0 {
		t.Fatal("the network overtook no hop; reordering was not exercised")
	}
}

// identicalLU asserts exact (bitwise) tile equality of two factored matrices.
func identicalLU(t *testing.T, label string, want, got *matrix.Dense, mt int) {
	t.Helper()
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			if !want.Tile(i, j).EqualApprox(got.Tile(i, j), 0) {
				t.Fatalf("%s: tile (%d,%d) differs from the in-order factorization", label, i, j)
			}
		}
	}
}

func identicalCholesky(t *testing.T, label string, want, got *matrix.SymmetricLower, mt int) {
	t.Helper()
	for i := 0; i < mt; i++ {
		for j := 0; j <= i; j++ {
			if !want.Tile(i, j).EqualApprox(got.Tile(i, j), 0) {
				t.Fatalf("%s: tile (%d,%d) differs from the in-order factorization", label, i, j)
			}
		}
	}
}

// reorderSeeds are the seeds of every reordering regression.
var reorderSeeds = []int64{1, 424242, 9000001}

// sameLinks asserts that the reordered run sent exactly the in-order run's
// messages on every link — the Equation (1)/(2) accounting — and that every
// wire hop served one logical delivery.
func sameLinks(t *testing.T, label string, base, got *Report) {
	t.Helper()
	p := base.Stats.P
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if g, w := got.Stats.At(cluster.Messages, i, j), base.Stats.At(cluster.Messages, i, j); g != w {
				t.Errorf("%s: pair %d->%d sent %d messages, %d in order", label, i, j, g, w)
			}
		}
	}
	if hops, msgs := got.Stats.TotalHops(), got.Stats.TotalMessages(); hops != msgs {
		t.Errorf("%s: %d wire hops for %d logical messages", label, hops, msgs)
	}
}

// TestChaosRegressionG2DBC23 runs both factorizations at the paper's
// flagship 23-node G-2DBC distribution on a reordering network and asserts
// that the delivery order changes nothing observable: final tiles
// byte-identical to the in-order run, the per-pair message counters equal to
// it (and within the Equations (1)/(2) prediction), every hop one delivery,
// and the timestamp-free trace — which tasks ran where, the per-link message
// rows — the same, in both broadcast modes. (The Chaos names here are those
// of the fault suite these tests replaced, kept so their history reads on.)
func TestChaosRegressionG2DBC23(t *testing.T) {
	const mt, b = 12, 4
	d := dist.NewG2DBC(23)

	// run factors with f in order and then under every seed, for each mode;
	// same compares two of f's results.
	run := func(t *testing.T, f func(Options) (any, *Report, error), same func(t *testing.T, want, got any), pred float64) {
		for _, mode := range []cluster.BroadcastMode{cluster.BroadcastFlat, cluster.BroadcastTree} {
			baseRec := &trace.Recorder{}
			base, baseRep, err := f(Options{Workers: 2, Broadcast: mode, Recorder: baseRec})
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range reorderSeeds {
				t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
					opt, net := reordered(t, d.Nodes(), mode, seed, 2)
					rec := &trace.Recorder{}
					opt.Recorder = rec
					got, rep, err := f(opt)
					if err != nil {
						t.Fatal(err)
					}
					checkReordered(t, net)
					same(t, base, got)
					sameLinks(t, mode.String(), baseRep, rep)
					if fa, fb := baseRec.Fingerprint(), rec.Fingerprint(); fa != fb {
						t.Errorf("structural trace %s, %s in order", fb, fa)
					}
					if v := float64(rep.Stats.TotalMessages()); v > pred {
						t.Errorf("volume %v above prediction %v", v, pred)
					}
				})
			}
		}
	}

	t.Run("LU", func(t *testing.T) {
		run(t, func(opt Options) (any, *Report, error) {
			return FactorLU(mt, b, d, GenDiagDominant(mt, b, 31), opt)
		}, func(t *testing.T, want, got any) {
			identicalLU(t, "reordered run", want.(*matrix.Dense), got.(*matrix.Dense), mt)
		}, d.Pattern().CommVolumeLU(mt))
	})
	t.Run("Cholesky", func(t *testing.T) {
		run(t, func(opt Options) (any, *Report, error) {
			return FactorCholesky(mt, b, d, GenSPD(mt, b, 32), opt)
		}, func(t *testing.T, want, got any) {
			identicalCholesky(t, "reordered run", want.(*matrix.SymmetricLower), got.(*matrix.SymmetricLower), mt)
		}, d.Pattern().CommVolumeCholesky(mt))
	})
}

// TestChaosWorkStealingWorkers4 runs the reordering regression with 4
// workers per node, so the node's shared queue is exercised under reordered
// deliveries rather than only at the 2 workers the regression above pins.
// (The name predates the single queue: there is no stealing.) Factors must
// stay bit-identical to the in-order run and the per-pair message counts
// equal to it.
func TestChaosWorkStealingWorkers4(t *testing.T) {
	const mt, b, workers = 10, 4, 4
	d := dist.NewG2DBC(23)

	t.Run("LU", func(t *testing.T) {
		base, baseRep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 51), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range reorderSeeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				opt, net := reordered(t, d.Nodes(), cluster.BroadcastFlat, seed, workers)
				fact, rep, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 51), opt)
				if err != nil {
					t.Fatal(err)
				}
				checkReordered(t, net)
				identicalLU(t, "reordered workers=4", base, fact, mt)
				sameLinks(t, "LU", baseRep, rep)
			})
		}
	})

	t.Run("Cholesky", func(t *testing.T) {
		base, baseRep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 52), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range reorderSeeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				opt, net := reordered(t, d.Nodes(), cluster.BroadcastFlat, seed, workers)
				fact, rep, err := FactorCholesky(mt, b, d, GenSPD(mt, b, 52), opt)
				if err != nil {
					t.Fatal(err)
				}
				checkReordered(t, net)
				identicalCholesky(t, "reordered workers=4", base, fact, mt)
				sameLinks(t, "Cholesky", baseRep, rep)
			})
		}
	})
}

// TestChaosCrashSoak fails node 1's kernel on each of its owned tasks in
// turn, on a reordering network, and accepts exactly two outcomes per
// failure point: an error that names node 1, the task and the kernel's
// error, or — past the node's last task, where nothing fails — factors
// identical to the in-order run. A hang is the one forbidden outcome,
// enforced by the watchdog. (A "crash" is a failing kernel now, and crashAt
// the index of the failing task among the node's own.)
func TestChaosCrashSoak(t *testing.T) {
	const mt, b, victim = 4, 4, 1
	d := dist.NewTwoDBC(2, 2)
	pl, err := plans.get(shape{graph: graphLU, mt: mt}, d)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pl.Tasks(victim)
	if hi == lo {
		t.Fatal("victim owns no tasks; soak proves nothing")
	}
	base, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 41), Options{})
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("injected kernel failure")

	for n := int32(0); n <= hi-lo; n++ {
		t.Run(fmt.Sprintf("crashAt=%d", n), func(t *testing.T) {
			fails := lo+n < hi
			var doomed dag.Task
			if fails {
				doomed = pl.Task(lo + n)
			}
			kern := func(task dag.Task, out *tile.Tile, in []*tile.Tile) error {
				if fails && task == doomed {
					return errBoom
				}
				return LUKernel(task, out, in)
			}
			opt, _ := reordered(t, d.Nodes(), cluster.BroadcastFlat, int64(1000+n), 1)
			var fact *matrix.Dense
			err := runWithDeadline(t, func() error {
				var err error
				fact, _, err = runPlanDense(pl, mt, b, GenDiagDominant(mt, b, 41), kern, opt)
				return err
			})
			switch {
			case !fails && err != nil:
				t.Fatalf("run with no failing task failed: %v", err)
			case !fails:
				identicalLU(t, "surviving run", base, fact, mt)
			case !errors.Is(err, errBoom) || !strings.Contains(err.Error(), fmt.Sprintf("node %d: %v", victim, doomed)):
				t.Fatalf("failure on %v returned %v, want node %d's kernel error naming the task", doomed, err, victim)
			}
		})
	}
}
