package tile

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks at the paper's tile size (500) and a smaller one,
// used to sanity-check the machine model's per-core GFlop/s assumption
// against what this pure-Go implementation actually sustains.

func benchTiles(b *testing.B, n int) (*Tile, *Tile, *Tile) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	x, y, z := New(n, n), New(n, n), New(n, n)
	x.Random(rng)
	y.Random(rng)
	z.Random(rng)
	return x, y, z
}

func benchGemm(b *testing.B, n int, transB Trans) {
	x, y, z := benchTiles(b, n)
	b.SetBytes(int64(24 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(NoTrans, transB, -1, x, y, 1, z)
	}
	b.ReportMetric(FlopsGemm(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkKernelGemmSmall times the tile sizes that fit in L1 and are read
// in place (lu-overhead runs b=8, serve-mix b=32) and the first one that is
// packed, for LU's NN update and Cholesky's NT update.
func BenchmarkKernelGemmSmall(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		for _, tb := range []Trans{NoTrans, TransT} {
			name := fmt.Sprintf("b=%d/NN", n)
			if tb == TransT {
				name = fmt.Sprintf("b=%d/NT", n)
			}
			b.Run(name, func(b *testing.B) { benchGemm(b, n, tb) })
		}
	}
}

func BenchmarkKernelGemm128(b *testing.B)       { benchGemm(b, 128, NoTrans) }
func BenchmarkKernelGemm256(b *testing.B)       { benchGemm(b, 256, NoTrans) }
func BenchmarkKernelGemm500(b *testing.B)       { benchGemm(b, 500, NoTrans) }
func BenchmarkKernelGemmTransB256(b *testing.B) { benchGemm(b, 256, TransT) }
func BenchmarkKernelGemmTransB500(b *testing.B) { benchGemm(b, 500, TransT) }

// coldRingBytes is the least a cold benchmark's ring of tiles holds: past
// every private cache of the box, so each call finds its three operands where
// a factorization's kernels find theirs — wherever the last writer left them.
const coldRingBytes = 64 << 20

// benchGemmCold is benchGemm over a ring of distinct (A, B, C) triples: no
// call touches a tile an earlier one left in cache. A triple's C is only ever
// a C, so its values grow linearly with the laps, never into overflow.
func benchGemmCold(b *testing.B, n int, transB Trans) {
	rng := rand.New(rand.NewSource(1))
	triples := (coldRingBytes + 24*n*n - 1) / (24 * n * n)
	ring := make([]*Tile, 3*triples)
	for i := range ring {
		ring[i] = New(n, n)
		ring[i].Random(rng)
	}
	b.SetBytes(int64(24 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ring[3*(i%triples):]
		Gemm(NoTrans, transB, -1, t[0], t[1], 1, t[2])
	}
	b.ReportMetric(FlopsGemm(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkKernelGemmCold128(b *testing.B)       { benchGemmCold(b, 128, NoTrans) }
func BenchmarkKernelGemmCold256(b *testing.B)       { benchGemmCold(b, 256, NoTrans) }
func BenchmarkKernelGemmColdTransB256(b *testing.B) { benchGemmCold(b, 256, TransT) }

func benchSyrk(b *testing.B, n int) {
	x, _, z := benchTiles(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Syrk(Lower, NoTrans, -1, x, 1, z)
	}
	b.ReportMetric(FlopsSyrk(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkKernelSyrk128(b *testing.B) { benchSyrk(b, 128) }
func BenchmarkKernelSyrk500(b *testing.B) { benchSyrk(b, 500) }

func benchTrsm(b *testing.B, n int, side Side, uplo Uplo, trans Trans, diag Diag) {
	rng := rand.New(rand.NewSource(2))
	a := New(n, n)
	a.Random(rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, 3)
	}
	x := New(n, n)
	x.Random(rng)
	// Solve a fresh copy each time: solving in place over and over drives the
	// values into overflow or denormals, and the benchmark would time those.
	work := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(x)
		Trsm(side, uplo, trans, diag, 1, a, work)
	}
	b.ReportMetric(FlopsTrsm(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkKernelTrsm500(b *testing.B)      { benchTrsm(b, 500, Left, Lower, NoTrans, NonUnit) }
func BenchmarkKernelTrsmRight500(b *testing.B) { benchTrsm(b, 500, Right, Upper, NoTrans, NonUnit) }

// The three variants the factorizations issue, at the benchmark's tile sizes
// (bench/: lu-compute runs b=256, chol-p23 b=128): LU's row panel (Left,
// Lower, NoTrans, Unit) and column panel (Right, Upper, NoTrans, NonUnit),
// Cholesky's panel (Right, Lower, TransT, NonUnit).
func BenchmarkKernelTrsmLURow128(b *testing.B)    { benchTrsm(b, 128, Left, Lower, NoTrans, Unit) }
func BenchmarkKernelTrsmLURow256(b *testing.B)    { benchTrsm(b, 256, Left, Lower, NoTrans, Unit) }
func BenchmarkKernelTrsmLUCol128(b *testing.B)    { benchTrsm(b, 128, Right, Upper, NoTrans, NonUnit) }
func BenchmarkKernelTrsmLUCol256(b *testing.B)    { benchTrsm(b, 256, Right, Upper, NoTrans, NonUnit) }
func BenchmarkKernelTrsmCholesky128(b *testing.B) { benchTrsm(b, 128, Right, Lower, TransT, NonUnit) }
func BenchmarkKernelTrsmCholesky256(b *testing.B) { benchTrsm(b, 256, Right, Lower, TransT, NonUnit) }

// BenchmarkKernelTrsmSmall times the same three variants at the small tile
// sizes (lu-overhead runs b=8; b=24 is trsmNB, the largest tile solved by one
// substitution): each is one vectorised substitution.
func BenchmarkKernelTrsmSmall(b *testing.B) {
	variants := []struct {
		name  string
		side  Side
		uplo  Uplo
		trans Trans
		diag  Diag
	}{
		{"LURow", Left, Lower, NoTrans, Unit},
		{"LUCol", Right, Upper, NoTrans, NonUnit},
		{"Cholesky", Right, Lower, TransT, NonUnit},
	}
	for _, n := range []int{4, 8, 16, 24} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("b=%d/%s", n, v.name), func(b *testing.B) {
				benchTrsm(b, n, v.side, v.uplo, v.trans, v.diag)
			})
		}
	}
}

func benchPotrf(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(3))
	src := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := 2*rng.Float64() - 1
			src.Set(i, j, v)
			src.Set(j, i, v)
		}
		src.Set(i, i, float64(n)+100)
	}
	work := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(src)
		if err := Potrf(work); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(FlopsPotrf(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkKernelPotrfSmall times serve-mix's b=32, the smallest tile whose
// recursion splits (one 16-row TRSM and SYRK between two scalar bases), and
// b=64.
func BenchmarkKernelPotrfSmall(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("b=%d", n), func(b *testing.B) { benchPotrf(b, n) })
	}
}

func BenchmarkKernelPotrf128(b *testing.B) { benchPotrf(b, 128) }
func BenchmarkKernelPotrf500(b *testing.B) { benchPotrf(b, 500) }

func benchGetrf(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(4))
	src := New(n, n)
	src.Random(rng)
	for i := 0; i < n; i++ {
		src.Set(i, i, float64(n)+100)
	}
	work := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(src)
		if err := Getrf(work); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(FlopsGetrf(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkKernelGetrf256(b *testing.B) { benchGetrf(b, 256) }
func BenchmarkKernelGetrf500(b *testing.B) { benchGetrf(b, 500) }

// The O(n²) passes around a factorization — the generator's fill and the
// Frobenius norm of a result — at serve-mix's b = 32 and lu-compute's b = 256,
// one b×b tile per call, under every kernel this CPU runs: the AVX-512 entry
// runs the vector routines, the others the Go loops. ns/element is the rate
// DESIGN.md §6 quotes.
func benchPasses(b *testing.B, pass func(t *Tile)) {
	was := micro
	defer func() { micro = was }()
	for _, n := range []int{32, 256} {
		for _, mk := range microKernels {
			if !mk.supported {
				continue
			}
			b.Run(fmt.Sprintf("b=%d/%s", n, mk.name), func(b *testing.B) {
				micro = mk
				t := New(n, n)
				t.Random(rand.New(rand.NewSource(5)))
				b.SetBytes(int64(8 * n * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass(t)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/element")
			})
		}
	}
}

var normSink float64

func BenchmarkKernelFillUniform(b *testing.B) {
	benchPasses(b, func(t *Tile) { FillUniform(t.Data, 0x5eed) })
}

func BenchmarkKernelFrobeniusNorm(b *testing.B) {
	benchPasses(b, func(t *Tile) { normSink = t.FrobeniusNorm() })
}
