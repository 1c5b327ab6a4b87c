package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anybc/internal/dag"
	"anybc/internal/runtime"
	"anybc/internal/tile"
)

// span is one clocked interval at a layer boundary, in seconds since the
// tracer's origin. Parent is the id of the span that caused it (0 for none);
// spans of one iteration share Iter.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Iter   int     `json:"iter"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer buffers spans in memory until the run ends. It records everything
// from the benchmark's side of each call into a layer; nothing inside the
// program is instrumented.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (tr *tracer) since(t time.Time) float64 { return t.Sub(tr.origin).Seconds() }

// begin opens a span and returns its id.
func (tr *tracer) begin(name string, parent, iter int) int {
	now := tr.since(time.Now())
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: now})
	return id
}

// end closes a span and returns its duration in seconds.
func (tr *tracer) end(id int) float64 {
	now := tr.since(time.Now())
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// add records a finished span, start and end in seconds since the origin.
func (tr *tracer) add(name string, parent, iter int, start, end float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Iter: iter, Name: name,
		Start: start, End: end})
}

// write stores the buffered spans as JSON; the directory is created.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	err = enc.Encode(tr.spans)
	tr.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// taskSpan is one clocked kernel call.
type taskSpan struct {
	kind       dag.Kind
	start, end time.Time
}

// callTrace collects what the wrapped callbacks of one runtime.Run call see.
// The kernel wrapper runs on every node goroutine at once, so it touches
// atomics and a preallocated slot only; gen and collect are called from one
// goroutine today and take a mutex so that stays correct if that changes.
type callTrace struct {
	tr     *tracer
	parent int
	iter   int

	kernNanos atomic.Int64 // Σ clocked inside the wrapper, over all nodes
	kernCalls atomic.Int64
	tasks     []taskSpan // nil when task spans are not kept
	nTasks    atomic.Int64

	mu      sync.Mutex
	gen     []interval
	collect []interval
}

// newCallTrace prepares the trace of one call under the parent span;
// keepTasks > 0 preallocates that many per-task spans.
func newCallTrace(tr *tracer, parent, iter, keepTasks int) *callTrace {
	ct := &callTrace{tr: tr, parent: parent, iter: iter}
	if keepTasks > 0 {
		ct.tasks = make([]taskSpan, keepTasks)
	}
	return ct
}

func (ct *callTrace) wrapKernel(k runtime.Kernel) runtime.Kernel {
	return func(t dag.Task, out *tile.Tile, inputs []*tile.Tile) error {
		start := time.Now()
		err := k(t, out, inputs)
		end := time.Now()
		ct.kernNanos.Add(int64(end.Sub(start)))
		ct.kernCalls.Add(1)
		if ct.tasks != nil {
			if slot := ct.nTasks.Add(1) - 1; slot < int64(len(ct.tasks)) {
				ct.tasks[slot] = taskSpan{t.Kind, start, end}
			}
		}
		return err
	}
}

func (ct *callTrace) wrapGen(gen func(i, j int) *tile.Tile) func(i, j int) *tile.Tile {
	return func(i, j int) *tile.Tile {
		start := time.Now()
		t := gen(i, j)
		ct.clock(&ct.gen, start)
		return t
	}
}

func (ct *callTrace) wrapCollect(collect func(i, j int, t *tile.Tile)) func(i, j int, t *tile.Tile) {
	return func(i, j int, t *tile.Tile) {
		start := time.Now()
		collect(i, j, t)
		ct.clock(&ct.collect, start)
	}
}

func (ct *callTrace) clock(into *[]interval, start time.Time) {
	iv := interval{ct.tr.since(start), ct.tr.since(time.Now())}
	ct.mu.Lock()
	*into = append(*into, iv)
	ct.mu.Unlock()
}

// flush turns the call's records into spans under its parent: one span per
// kept task, and one each for the covered stretch of gen and collect.
func (ct *callTrace) flush() {
	n := int(ct.nTasks.Load())
	if n > len(ct.tasks) {
		n = len(ct.tasks)
	}
	for _, ts := range ct.tasks[:n] {
		ct.tr.add("tile."+ts.kind.String(), ct.parent, ct.iter, ct.tr.since(ts.start), ct.tr.since(ts.end))
	}
	stretch := func(name string, ivs []interval) {
		if len(ivs) == 0 {
			return
		}
		lo, hi := ivs[0].start, ivs[0].end
		for _, iv := range ivs {
			lo, hi = math.Min(lo, iv.start), math.Max(hi, iv.end)
		}
		ct.tr.add(name, ct.parent, ct.iter, lo, hi)
	}
	stretch("matrix.gen", ct.gen)
	stretch("matrix.collect", ct.collect)
}
