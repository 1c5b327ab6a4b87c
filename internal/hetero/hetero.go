// Package hetero extends the paper's distribution schemes to heterogeneous
// nodes — the extension the conclusion lists as future work ("Another avenue
// of research could be to extend these results to the case of heterogeneous
// nodes").
//
// The approach is virtual-node expansion: each physical node n with relative
// speed v_n receives w_n virtual slots, w_n ∝ v_n (largest-remainder
// apportionment). A homogeneous pattern — here G-2DBC, which exists for any
// slot count — is built over the V = Σ w_n virtual nodes and every cell is
// then mapped back to the physical node owning its slot. Work is therefore
// distributed proportionally to speed, while the per-row/column distinct
// node counts can only shrink under the mapping (several virtual nodes may
// collapse onto one physical node), so the communication cost never exceeds
// the homogeneous G-2DBC cost for V nodes.
package hetero

import (
	"fmt"
	"math"
	"sort"

	"anybc/internal/dist"
	"anybc/internal/pattern"
)

// Slots apportions total virtual slots to nodes proportionally to their
// speeds using the largest-remainder method. Every node with positive speed
// receives at least one slot. The returned slice sums exactly to total.
func Slots(speeds []float64, total int) ([]int, error) {
	P := len(speeds)
	if P == 0 {
		return nil, fmt.Errorf("hetero: no nodes")
	}
	if total < P {
		return nil, fmt.Errorf("hetero: %d slots for %d nodes", total, P)
	}
	sum := 0.0
	for n, v := range speeds {
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("hetero: node %d has speed %g, not a positive finite number", n, v)
		}
		sum += v
	}
	out := make([]int, P)
	type frac struct {
		n   int
		rem float64
	}
	fracs := make([]frac, P)
	assigned := 0
	for n, v := range speeds {
		exact := v / sum * float64(total)
		w := int(exact)
		if w < 1 {
			w = 1
		}
		out[n] = w
		assigned += w
		fracs[n] = frac{n: n, rem: exact - float64(w)}
	}
	// Distribute the remaining slots (or reclaim excess) by remainder order.
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for i := 0; assigned < total; i = (i + 1) % P {
		out[fracs[i].n]++
		assigned++
	}
	for i := P - 1; assigned > total; i = (i - 1 + P) % P {
		if out[fracs[i].n] > 1 {
			out[fracs[i].n]--
			assigned--
		}
	}
	return out, nil
}

// NewG2DBC builds a heterogeneous G-2DBC distribution for nodes with the
// given relative speeds. granularity controls the number of virtual slots
// per node on average (≥ 1; larger values track the speed ratios more
// precisely at the price of a larger pattern; 4 is a good default).
func NewG2DBC(speeds []float64, granularity int) (*dist.Cyclic, error) {
	if granularity < 1 {
		return nil, fmt.Errorf("hetero: granularity %d < 1", granularity)
	}
	P := len(speeds)
	V := P * granularity
	slots, err := Slots(speeds, V)
	if err != nil {
		return nil, err
	}
	// slotOwner[s] = physical node owning virtual slot s; slots are dealt in
	// round-robin over nodes (rather than contiguous ranges) so consecutive
	// virtual ids — which 2DBC-style patterns place in the same row — spread
	// across physical nodes.
	slotOwner := make([]int, 0, V)
	remaining := append([]int(nil), slots...)
	for len(slotOwner) < V {
		for n := 0; n < P; n++ {
			if remaining[n] > 0 {
				remaining[n]--
				slotOwner = append(slotOwner, n)
			}
		}
	}
	virt := dist.NewG2DBC(V).Pattern()
	pat := pattern.New(virt.Rows(), virt.Cols())
	for i := 0; i < virt.Rows(); i++ {
		for j := 0; j < virt.Cols(); j++ {
			pat.Set(i, j, slotOwner[virt.At(i, j)])
		}
	}
	return dist.NewCyclic(fmt.Sprintf("H-G2DBC(P=%d,V=%d)", P, V), pat)
}

// Imbalance measures how far a pattern's per-node cell shares deviate from
// the speed-proportional ideal: max_n share_n / idealShare_n − 1. Zero means
// perfectly speed-proportional load.
func Imbalance(p *pattern.Pattern, speeds []float64) float64 {
	counts := p.Counts()
	if len(counts) != len(speeds) {
		panic(fmt.Sprintf("hetero: %d nodes in pattern, %d speeds", len(counts), len(speeds)))
	}
	totalCells := 0
	for _, c := range counts {
		totalCells += c
	}
	totalSpeed := 0.0
	for _, v := range speeds {
		totalSpeed += v
	}
	worst := 0.0
	for n, c := range counts {
		ideal := speeds[n] / totalSpeed
		share := float64(c) / float64(totalCells)
		if dev := share/ideal - 1; dev > worst {
			worst = dev
		}
	}
	return worst
}
