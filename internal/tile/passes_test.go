package tile

import (
	"math"
	"math/rand"
	"testing"
)

// passLengths are the operand lengths the O(n²) passes are held at: every
// length through two and a half vectors of eight, so each main-loop, single
// vector and masked-tail combination runs, and a b = 16 tile row either side
// of 256.
func passLengths() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 255, 256, 257)
}

// splitmix64Ref is the generators' hash written out once more, apart from
// Uniform, so a change to the element law fails here and not only as moved
// factor bits downstream.
func splitmix64Ref(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestUniformIsTheElementLaw: Uniform is the top 53 bits of splitmix64
// mapped to [-1, 1).
func TestUniformIsTheElementLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 10000; i++ {
		x := rng.Uint64()
		want := float64(splitmix64Ref(x)>>11)/float64(1<<53)*2 - 1
		if got := Uniform(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Uniform(%#x) = %v, the law says %v", x, got, want)
		}
		if got := Uniform(x); got < -1 || got >= 1 {
			t.Fatalf("Uniform(%#x) = %v, outside [-1, 1)", x, got)
		}
	}
}

// TestFillUniformMatchesUniform: under every kernel this CPU runs, the fill
// writes Uniform(key + c) bit for bit into every element of dst and nothing
// beside it, for every length of passLengths and keys that wrap around 2⁶⁴
// inside the row.
func TestFillUniformMatchesUniform(t *testing.T) {
	const sentinel = 12345.5
	keys := []uint64{0, 1, 0x0123456789abcdef, math.MaxUint64, math.MaxUint64 - 7, math.MaxUint64 - 200}
	for _, mk := range testKernels(t) {
		micro = mk
		for _, n := range passLengths() {
			for _, key := range keys {
				buf := make([]float64, n+2)
				for i := range buf {
					buf[i] = sentinel
				}
				FillUniform(buf[1:n+1], key)
				if buf[0] != sentinel || buf[n+1] != sentinel {
					t.Fatalf("[%s] n=%d key=%#x: the fill wrote outside dst", mk.name, n, key)
				}
				for c, v := range buf[1 : n+1] {
					if want := Uniform(key + uint64(c)); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("[%s] n=%d key=%#x: element %d is %v, Uniform says %v", mk.name, n, key, c, v, want)
					}
				}
			}
		}
	}
}

// oldFrobenius is the scaled loop Tile.FrobeniusNorm ran on every tile
// before the sum of squares took the common case.
func oldFrobenius(x []float64) float64 {
	scale, ssq := scaledSumSquares(x, 0, 1)
	return scale * math.Sqrt(ssq)
}

// TestSumSquaresSameBitsUnderEveryKernel: the sixteen-lane sum returns the
// Go loop's bits under every kernel, at every length of passLengths, on
// entries of mixed sign and magnitude.
func TestSumSquaresSameBitsUnderEveryKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, mk := range testKernels(t) {
		micro = mk
		for _, n := range passLengths() {
			x := make([]float64, n)
			for i := range x {
				x[i] = (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(21)-10))
			}
			if got, want := sumSquares(x), sumSquaresGo(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("[%s] n=%d: sumSquares = %v, the Go loop says %v", mk.name, n, got, want)
			}
		}
	}
}

// TestFrobeniusNormCases: the edge cases return what the scaled loop returns
// — zero, NaN, infinities, entries whose squares overflow or underflow,
// mixed scales — with the same bits under every kernel, and random tiles
// agree with the scaled loop to 1e-14.
func TestFrobeniusNormCases(t *testing.T) {
	filled := func(n int, f func(i int) float64) *Tile {
		x := New(1, n)
		for i := range x.Data {
			x.Data[i] = f(i)
		}
		return x
	}
	cases := []struct {
		name string
		t    *Tile
		want float64
	}{
		{"zero", New(7, 5), 0},
		{"3-4-5", filled(2, func(i int) float64 { return float64(3 + i) }), 5},
		{"1e200", filled(37, func(int) float64 { return 1e200 }), 1e200 * math.Sqrt(37)},
		{"-1e200", filled(16, func(int) float64 { return -1e200 }), 4e200},
		{"1e-200", filled(37, func(int) float64 { return 1e-200 }), 1e-200 * math.Sqrt(37)},
		{"mixed 1e200 and 1", filled(33, func(i int) float64 { return []float64{1e200, 1}[i%2] }), 1e200 * math.Sqrt(17)},
		{"mixed 1 and 1e-200", filled(33, func(i int) float64 { return []float64{1, 1e-200}[i%2] }), math.Sqrt(17)},
		{"NaN", filled(20, func(i int) float64 { return []float64{1, math.NaN()}[i/19] }), math.NaN()},
		{"+Inf", filled(20, func(i int) float64 { return []float64{1, math.Inf(1)}[i/19] }), math.Inf(1)},
		{"-Inf", filled(20, func(i int) float64 { return []float64{1, math.Inf(-1)}[i/19] }), math.Inf(1)},
	}
	for _, c := range cases {
		var first uint64
		for k, mk := range testKernels(t) {
			micro = mk
			got := c.t.FrobeniusNorm()
			switch {
			case math.IsNaN(c.want):
				if !math.IsNaN(got) {
					t.Errorf("[%s] %s: norm %v, want NaN", mk.name, c.name, got)
				}
			case math.Abs(got-c.want) > 1e-14*c.want || (c.want == 0) != (got == 0) || math.IsInf(c.want, 0) != math.IsInf(got, 0):
				t.Errorf("[%s] %s: norm %v, want %v", mk.name, c.name, got, c.want)
			}
			if k == 0 {
				first = math.Float64bits(got)
			} else if math.Float64bits(got) != first {
				t.Errorf("[%s] %s: norm %v, the first kernel said %v", mk.name, c.name, got, math.Float64frombits(first))
			}
		}
	}

	rng := rand.New(rand.NewSource(43))
	for _, mk := range testKernels(t) {
		micro = mk
		for _, b := range []int{1, 7, 8, 32, 33, 256} {
			for trial := 0; trial < 4; trial++ {
				x := randomTile(rng, b, b)
				got, want := x.FrobeniusNorm(), oldFrobenius(x.Data)
				if d := math.Abs(got-want) / want; d > 1e-14 {
					t.Errorf("[%s] random %d×%d tile: norm %v, the scaled loop says %v (relative %.2e)", mk.name, b, b, got, want, d)
				}
			}
		}
	}
}

// TestFrobeniusNormOfManyTiles: the norm over several tiles is the norm of
// all their elements, including when one tile's square alone would overflow
// or underflow.
func TestFrobeniusNormOfManyTiles(t *testing.T) {
	for _, scale := range []float64{1, 1e200, 1e-200} {
		ts := make([]*Tile, 6)
		for i := range ts {
			ts[i] = New(4, 4)
			for k := range ts[i].Data {
				ts[i].Data[k] = scale
			}
		}
		want := scale * math.Sqrt(6*16)
		if got := FrobeniusNorm(ts...); math.Abs(got-want) > 1e-14*want {
			t.Errorf("6 tiles of 16 entries %g: norm %v, want %v", scale, got, want)
		}
	}
}
