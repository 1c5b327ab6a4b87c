package main

import (
	gort "runtime"
	"sync"
	"time"
)

// The sandbox's vCPUs are hyperthreads of a shared host: for minutes at a
// time a neighbour slows everything by 15 to 40 %, CPU seconds included, and
// ten raw timings of the same code then spread wider than any bound the
// contract allows. So every run clocks the machine as well as the program: a
// fixed loop, plain Go in this file, calling nothing in the repository, runs
// between operations on every processor, and the run's timings are divided by
// how much slower than calibRefMs that loop ran. A change to the program
// cannot move the loop; a slow minute moves both and cancels. The raw values
// and the factor are printed beside the normalised ones.

const (
	// calibRefMs is the burst's wall-clock on this sandbox when nothing
	// else contends for it: the speed all timings are normalised to.
	calibRefMs = 8.0
	// calibEvery is the least time between two bursts, which keeps the
	// loop's share of a run under 4 %.
	calibEvery = 250 * time.Millisecond
	// calibWords sizes the array one goroutine walks (256 KiB: resident in
	// the private cache); calibPasses is how often a burst walks it.
	calibWords  = 32 << 10
	calibPasses = 384
)

// speedometer collects calibration bursts over a phase of a run.
type speedometer struct {
	data   [][]float64 // one array per processor
	sink   []float64
	bursts []float64 // milliseconds
	cpuS   float64   // CPU seconds the bursts themselves used
	last   time.Time
}

func newSpeedometer() *speedometer {
	procs := gort.GOMAXPROCS(0)
	s := &speedometer{sink: make([]float64, procs)}
	for g := 0; g < procs; g++ {
		x := make([]float64, calibWords)
		for i := range x {
			x[i] = 1 + float64((i*7919+g)%1000)/1e6
		}
		s.data = append(s.data, x)
	}
	// The process's first burst pays for its threads and page faults.
	s.burst()
	s.reset()
	return s
}

// tick runs one burst unless the last one was under calibEvery ago.
func (s *speedometer) tick() {
	if time.Since(s.last) >= calibEvery {
		s.burst()
	}
}

func (s *speedometer) burst() {
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	start := time.Now()
	for g := range s.data {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.sink[g] = calibLoop(s.data[g])
		}(g)
	}
	wg.Wait()
	s.last = time.Now()
	s.bursts = append(s.bursts, s.last.Sub(start).Seconds()*1e3)
	s.cpuS += cpuSeconds() - cpu0
}

// factor is how much slower than the reference the machine ran over the
// bursts so far: the median burst over calibRefMs.
func (s *speedometer) factor() float64 { return median(s.bursts) / calibRefMs }

// reset starts a new phase.
func (s *speedometer) reset() { s.bursts, s.cpuS, s.last = nil, 0, time.Time{} }

// calibLoop is four independent multiply-add chains over the array, two of
// them at a strided index, so the arithmetic units and the cache are both
// kept busy.
func calibLoop(x []float64) float64 {
	a0, a1, a2, a3 := 1.0, 1.0, 1.0, 1.0
	mask := len(x) - 1
	for p := 0; p < calibPasses; p++ {
		for i := 0; i < len(x); i += 4 {
			j := (i * 17) & mask
			a0 = a0*0.999999 + x[i]
			a1 = a1*0.999998 + x[j]
			a2 = a2*0.999997 + x[i+1]
			a3 = a3*0.999996 + x[(j+5)&mask]
		}
	}
	return a0 + a1 + a2 + a3
}
