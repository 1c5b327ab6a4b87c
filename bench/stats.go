package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by the nearest-rank
// rule on a sorted copy; the median of an even count is the mean of the two
// middle values. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile picks the highest percentile of the ladder that leaves at
// least ten of n samples beyond it; with fewer than twenty samples only the
// median qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // nearest rank, as in percentile
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// interval is a clocked span in seconds since some origin.
type interval struct{ start, end float64 }

// unionSeconds returns the total length covered by the intervals, counting
// overlapping stretches once — so a layer's clocked time stays right when
// its calls run concurrently.
func unionSeconds(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	total, cur := 0.0, s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
		} else if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// attribution splits one factorization's wall-clock into five fractions that
// sum to 1 by construction.
type attribution struct{ gen, collect, prepost, kernel, other float64 }

// attribute computes the split. wall is the whole call, elapsed is
// runtime.Report.Elapsed (which contains tile generation), gen and collect
// are the clocked unions of the wrapped callbacks, and kernel is the computed
// kernel time on the cores available. prepost is what Run spends outside
// Elapsed and the gather; other is the remainder inside Elapsed: engine
// set-up, dispatch, messaging and stalls. A component larger than what is
// left of the wall-clock is cut to it, so the sum stays 1.
func attribute(wall, elapsed, gen, collect, kernel float64) attribution {
	if wall <= 0 {
		return attribution{}
	}
	var a attribution
	rest := 1.0
	take := func(share float64) float64 {
		share = math.Max(0, math.Min(share, rest))
		rest -= share
		return share
	}
	a.gen = take(gen / wall)
	a.collect = take(collect / wall)
	a.prepost = take((wall - elapsed - collect) / wall)
	a.kernel = take(kernel / wall)
	a.other = rest
	return a
}

func (a attribution) sum() float64 { return a.gen + a.collect + a.prepost + a.kernel + a.other }

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median — the spread the driver holds against a bound.
// Quartiles follow Python's statistics.quantiles(xs, n=4) (exclusive method).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
