package runtime

import (
	"flag"
	"os"
	"os/exec"
	gort "runtime"
	"strconv"
	"testing"

	"anybc/internal/dist"
)

// heapFreshRun is the -test.run pattern under which
// TestRepeatedCallsHoldOneMatrix runs its body: the test re-executes its own
// binary with it, so the heap it measures holds nothing of other tests.
const heapFreshRun = "^TestRepeatedCallsHoldOneMatrix$/^fresh$"

// TestRepeatedCallsHoldOneMatrix: in a fresh process, six LU calls and then
// six Cholesky calls, each matrix above collectFirstBytes and every result
// dropped, never grow the heap past a fixed base, one and a half matrices and
// what the call itself threw away; and each call forces exactly one
// collection. Without gather's collection a call fills the heap beside its
// predecessor's dead matrix up to the pacer's goal, two matrices. The tiles
// are b = 32, whose GEMMs draw no pack buffer. The race detector's sync.Pool
// drops a quarter of what it is handed, so there a Cholesky call's SYRK and
// TRSM scratch alone throws away half a matrix (at b = 128 a call's dropped
// buffers outweigh the matrix); without it a call throws away under 1 MB.
func TestRepeatedCallsHoldOneMatrix(t *testing.T) {
	if flag.Lookup("test.run").Value.String() != heapFreshRun {
		out, err := exec.Command(os.Args[0], "-test.run="+heapFreshRun, "-test.v",
			"-test.cpu="+strconv.Itoa(gort.GOMAXPROCS(0))).CombinedOutput()
		t.Logf("fresh process:\n%s", out)
		if err != nil {
			t.Fatalf("fresh process: %v", err)
		}
		return
	}
	t.Run("fresh", func(t *testing.T) {
		const luMt, cholMt, b = 46, 64, 32
		d := dist.NewG2DBC(4)
		calls := []struct {
			name  string
			bytes uint64
			run   func(b int) error
		}{
			{"LU", luMt * luMt * b * b * 8, func(b int) error {
				_, _, err := FactorLU(luMt, b, d, GenDiagDominant(luMt, b, 1), Options{})
				return err
			}},
			{"Cholesky", cholMt * (cholMt + 1) / 2 * b * b * 8, func(b int) error {
				_, _, err := FactorCholesky(cholMt, b, d, GenSPD(cholMt, b, 2), Options{})
				return err
			}},
		}
		// The base: the process keeps the compiled plans (plancache.go), so
		// compile them first, on tiles of one element, which collect nothing.
		var ms gort.MemStats
		matrix := uint64(0)
		for _, c := range calls {
			if c.bytes < collectFirstBytes {
				t.Fatalf("a %d-byte %s matrix is under collectFirstBytes", c.bytes, c.name)
			}
			matrix = max(matrix, c.bytes)
			if err := c.run(1); err != nil {
				t.Fatal(err)
			}
		}
		gort.ReadMemStats(&ms)
		base := ms.HeapSys
		bound := base + matrix*3/2
		t.Logf("base (plans compiled) %.1f MB, bound %.1f MB", float64(base)/1e6, float64(bound)/1e6)
		for _, c := range calls {
			for k := range 6 {
				gort.ReadMemStats(&ms)
				forced, alloc := ms.NumForcedGC, ms.TotalAlloc
				if err := c.run(b); err != nil {
					t.Fatal(err)
				}
				gort.ReadMemStats(&ms)
				waste := ms.TotalAlloc - alloc - c.bytes
				t.Logf("%s call %d: HeapSys %.1f MB, %.1f MB thrown away", c.name, k,
					float64(ms.HeapSys)/1e6, float64(waste)/1e6)
				if n := ms.NumForcedGC - forced; n != 1 {
					t.Errorf("%s call %d forced %d collections, want 1", c.name, k, n)
				}
				if ms.HeapSys > bound+waste {
					t.Errorf("%s call %d: HeapSys %d bytes, over %d = base %d + 1.5 × a %d-byte matrix + %d thrown away",
						c.name, k, ms.HeapSys, bound+waste, base, matrix, waste)
				}
			}
		}
	})
}

// TestForcedCollectionOnlyAboveTheConstant: a Factor call forces one
// collection when its matrix is at least collectFirstBytes and none below —
// not on the lu-overhead shape, a b = 32 call, or an LU matrix one tile row
// under the constant.
func TestForcedCollectionOnlyAboveTheConstant(t *testing.T) {
	cases := []struct {
		name                  string
		cholesky              bool
		mt, b, nodes, workers int
		forced                uint32
	}{
		{"lu-overhead shape", false, 24, 8, 44, 2, 0},
		{"LU b=32 mt=12", false, 12, 32, 4, 1, 0},
		{"LU just under", false, 11, 128, 4, 1, 0},
		{"LU above", false, 12, 128, 4, 1, 1},
		{"Cholesky above", true, 16, 128, 4, 1, 1},
	}
	var ms gort.MemStats
	for _, c := range cases {
		d, opt := dist.NewG2DBC(c.nodes), Options{Workers: c.workers}
		tiles := c.mt * c.mt
		if c.cholesky {
			tiles = c.mt * (c.mt + 1) / 2
		}
		if bytes := tiles * c.b * c.b * 8; (bytes >= collectFirstBytes) != (c.forced == 1) {
			t.Fatalf("%s: a %d-byte matrix is on the wrong side of %d for this case", c.name, bytes, collectFirstBytes)
		}
		gort.ReadMemStats(&ms)
		before := ms.NumForcedGC
		var err error
		if c.cholesky {
			_, _, err = FactorCholesky(c.mt, c.b, d, GenSPD(c.mt, c.b, 2), opt)
		} else {
			_, _, err = FactorLU(c.mt, c.b, d, GenDiagDominant(c.mt, c.b, 1), opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		gort.ReadMemStats(&ms)
		if n := ms.NumForcedGC - before; n != c.forced {
			t.Errorf("%s: %d forced collections, want %d", c.name, n, c.forced)
		}
	}
}
