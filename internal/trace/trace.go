// Package trace records execution timelines: one interval per kernel
// execution (node, worker slot, task, start, end) and one per message
// (source, destination, departure, arrival, bytes). Both the discrete-event
// simulator and the real distributed runtime feed the same Recorder — the
// simulator with model time, the runtime with wall-clock time — so traces
// support the Gantt-style analyses behind the paper's performance discussion
// (worker utilization, idle-time attribution, communication serialization)
// for either substrate, and export as CSV for external plotting.
package trace

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"anybc/internal/dag"
)

// TaskEvent is one kernel execution interval.
type TaskEvent struct {
	Node, Slot int
	Task       dag.Task
	Start, End float64
}

// MessageEvent is one tile transfer.
type MessageEvent struct {
	Src, Dst       int
	Depart, Arrive float64
	Bytes          int
}

// StallEvent is one interval during which one of a node's workers was free
// with nothing ready to dispatch — scheduler starvation, attributable to
// communication or to predecessor tasks on other nodes. Weight is the
// interval's share of the node's capacity: one idle worker out of W carries
// weight 1/W, so summed weighted stalls measure lost capacity-seconds rather
// than counting a 1-of-4-idle node like a fully idle one.
type StallEvent struct {
	Node       int
	Start, End float64
	Weight     float64
}

// Recorder accumulates events during one run. Recording is safe for
// concurrent use — the real runtime records from every node's goroutines —
// while the analysis methods expect recording to have finished.
type Recorder struct {
	mu       sync.Mutex
	Tasks    []TaskEvent
	Messages []MessageEvent
	Stalls   []StallEvent
}

// RecordTask appends a kernel execution interval.
func (r *Recorder) RecordTask(node, slot int, t dag.Task, start, end float64) {
	r.mu.Lock()
	r.Tasks = append(r.Tasks, TaskEvent{Node: node, Slot: slot, Task: t, Start: start, End: end})
	r.mu.Unlock()
}

// RecordMessage appends a tile transfer.
func (r *Recorder) RecordMessage(src, dst int, depart, arrive float64, bytes int) {
	r.mu.Lock()
	r.Messages = append(r.Messages, MessageEvent{Src: src, Dst: dst, Depart: depart, Arrive: arrive, Bytes: bytes})
	r.mu.Unlock()
}

// RecordStall appends a scheduler-starvation interval for a node, weighted
// by the idle share of the node's workers it represents (see StallEvent).
func (r *Recorder) RecordStall(node int, start, end, weight float64) {
	r.mu.Lock()
	r.Stalls = append(r.Stalls, StallEvent{Node: node, Start: start, End: end, Weight: weight})
	r.mu.Unlock()
}

// Makespan returns the latest event end time.
func (r *Recorder) Makespan() float64 {
	m := 0.0
	for _, e := range r.Tasks {
		if e.End > m {
			m = e.End
		}
	}
	for _, e := range r.Messages {
		if e.Arrive > m {
			m = e.Arrive
		}
	}
	return m
}

// BusyPerNode returns the summed kernel time per node for a cluster of p
// nodes: nodes that never ran a task — including trailing idle ones, which
// sizing by the largest node seen would silently drop — report zero. The
// output grows beyond p only if some event names a higher node.
func (r *Recorder) BusyPerNode(p int) []float64 {
	for _, e := range r.Tasks {
		if e.Node >= p {
			p = e.Node + 1
		}
	}
	out := make([]float64, p)
	for _, e := range r.Tasks {
		out[e.Node] += e.End - e.Start
	}
	return out
}

// KindBreakdown returns total kernel time per task kind name.
func (r *Recorder) KindBreakdown() map[string]float64 {
	out := map[string]float64{}
	for _, e := range r.Tasks {
		out[e.Task.Kind.String()] += e.End - e.Start
	}
	return out
}

// Utilization returns, for each of p nodes, the fraction of the makespan its
// workers spent executing kernels, given the worker count per node. Idle
// nodes report zero utilization rather than vanishing from the output.
func (r *Recorder) Utilization(workers, p int) []float64 {
	mk := r.Makespan()
	busy := r.BusyPerNode(p)
	out := make([]float64, len(busy))
	if mk <= 0 || workers <= 0 {
		return out
	}
	for n, b := range busy {
		out[n] = b / (mk * float64(workers))
	}
	return out
}

// Validate checks trace consistency: intervals well formed and no two tasks
// overlapping on the same (node, slot).
func (r *Recorder) Validate() error {
	type key struct{ node, slot int }
	bySlot := map[key][]TaskEvent{}
	for _, e := range r.Tasks {
		if e.End < e.Start {
			return fmt.Errorf("trace: task %v has negative duration", e.Task)
		}
		k := key{e.Node, e.Slot}
		bySlot[k] = append(bySlot[k], e)
	}
	for k, evs := range bySlot {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End-1e-12 {
				return fmt.Errorf("trace: overlap on node %d slot %d: %v and %v",
					k.node, k.slot, evs[i-1].Task, evs[i].Task)
			}
		}
	}
	for _, m := range r.Messages {
		if m.Arrive < m.Depart {
			return fmt.Errorf("trace: message %d->%d arrives before departure", m.Src, m.Dst)
		}
	}
	for _, s := range r.Stalls {
		if s.End < s.Start {
			return fmt.Errorf("trace: stall on node %d has negative duration", s.Node)
		}
		if s.Weight < 0 || s.Weight > 1 {
			return fmt.Errorf("trace: stall on node %d has weight %g outside [0, 1]", s.Node, s.Weight)
		}
	}
	return nil
}

// GanttCSV writes the task intervals as CSV (node, slot, kind, task, start,
// end).
func (r *Recorder) GanttCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "node,slot,kind,task,start,end"); err != nil {
		return err
	}
	for _, e := range r.Tasks {
		if _, err := fmt.Fprintf(w, "%d,%d,%q,%q,%.9f,%.9f\n",
			e.Node, e.Slot, e.Task.Kind.String(), e.Task.String(), e.Start, e.End); err != nil {
			return err
		}
	}
	return nil
}

// MessagesCSV writes the message intervals as CSV.
func (r *Recorder) MessagesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "src,dst,depart,arrive,bytes"); err != nil {
		return err
	}
	for _, m := range r.Messages {
		if _, err := fmt.Fprintf(w, "%d,%d,%.9f,%.9f,%d\n",
			m.Src, m.Dst, m.Depart, m.Arrive, m.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint hashes the structural content of the trace — which tasks ran
// where, and the per-(src,dst) message counts and byte volumes — excluding
// every wall-clock timestamp. Two runs of one workload that differ only in
// timing and delivery order produce equal fingerprints; any divergence in
// what happened (an extra message, a task migrating nodes) changes the hash.
func (r *Recorder) Fingerprint() string {
	tasks := make([]string, len(r.Tasks))
	for i, e := range r.Tasks {
		tasks[i] = fmt.Sprintf("task n%d %s", e.Node, e.Task)
	}
	sort.Strings(tasks)

	type pair struct{ src, dst int }
	counts := map[pair]int{}
	bytes := map[pair]int{}
	for _, m := range r.Messages {
		k := pair{m.Src, m.Dst}
		counts[k]++
		bytes[k] += m.Bytes
	}
	pairs := make([]pair, 0, len(counts))
	for k := range counts {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})

	h := fnv.New64a()
	for _, s := range tasks {
		fmt.Fprintln(h, s)
	}
	for _, k := range pairs {
		fmt.Fprintf(h, "msg %d->%d n=%d bytes=%d\n", k.src, k.dst, counts[k], bytes[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
