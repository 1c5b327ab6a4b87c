package simulate

import (
	"fmt"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/sched"
	"anybc/internal/trace"
)

// Scheduler selects which ready task a free worker picks next.
type Scheduler int

// Scheduling policies for the per-node ready queues. Both map onto the
// policies of package sched, which the real runtime shares.
const (
	// IterationOrder prioritizes lower iterations and panel kernels before
	// updates (sched.CriticalPath) — the lookahead-friendly policy dynamic
	// runtimes converge to, and the one the real runtime dispatches with.
	IterationOrder Scheduler = iota
	// FIFOOrder executes ready tasks in release order (sched.FIFO).
	FIFOOrder
)

// policy maps the simulator option onto the shared scheduling policy.
func (s Scheduler) policy() (sched.Policy, error) {
	switch s {
	case IterationOrder:
		return sched.CriticalPath, nil
	case FIFOOrder:
		return sched.FIFO, nil
	}
	return 0, fmt.Errorf("simulate: unknown scheduler %d", int(s))
}

// Options configures a simulation run. A message carries one output tile:
// dag.Program.OutputBytes bytes, 8·b² when the program leaves that unset.
type Options struct {
	// Scheduler selects the ready-queue policy (default IterationOrder).
	Scheduler Scheduler
	// Recorder, when non-nil, receives every kernel interval and message of
	// the run for Gantt/utilization analysis (package trace).
	Recorder *trace.Recorder
	// NodeSpeed optionally gives per-node speed multipliers (length P, all
	// positive), modeling heterogeneous nodes: node n executes kernels at
	// NodeSpeed[n] × FlopsPerWorker per worker. Nil means homogeneous.
	NodeSpeed []float64
	// Broadcast selects the transport model for one tile consumed by k
	// remote nodes: cluster.BroadcastFlat (default) serializes k sends on
	// the owner's NIC, the paper's point-to-point model; cluster.
	// BroadcastTree uses the same binomial tree as the real runtime — the
	// owner transmits ⌈log₂(k+1)⌉ hops and recipients relay onward as their
	// copies arrive, so the broadcast pipelines across the recipients' NICs.
	// Logical counters (Result.Messages/Bytes) are mode-independent; the
	// wire view is Result.Hops/Forwards and the per-node Sent/RecvBytes.
	Broadcast cluster.BroadcastMode
}

// Run simulates the execution of graph g with tile size b under distribution
// d on machine m and returns the timing result. The simulation applies the
// owner-computes rule, models one message per (tile, remote consumer node)
// exactly like the real runtime, serializes each node's outgoing and incoming
// NIC, and overlaps communication with computation.
func Run(g dag.Graph, b int, d dist.Distribution, m Machine, opt Options) (*Result, error) {
	s, err := newSim(g, b, d, m, opt)
	if err != nil {
		return nil, err
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.res, nil
}

// sim is the state of one run. Memory is the inference's window of the
// graph, O(P) node state, and two pools that grow to the peak of what is in
// flight and no further: queued events and delivery records.
//
// Tasks are named by their position in the program. The inference holds each
// task's owner and count of outstanding dependencies from the moment it is
// inferred until the task has run, and infers the next iteration only when a
// finishing task needs its successors: a program that states its iterations
// is held a few of them at a time.
type sim struct {
	inf    *dag.Inference
	b      int
	m      Machine
	rec    *trace.Recorder
	policy sched.Policy
	tree   bool
	// From the program: a task's flops and the wire size of its output tile
	// (nil: 8·b²).
	flops func(t dag.Task, b int) float64
	bytes func(t dag.Task, b int) int
	rate  []float64 // flop/s of one worker, by node
	live  int       // the most tasks the inference held at once

	// By node.
	ready       []sched.Heap
	freeWorkers []int
	nicOut      []float64
	nicIn       []float64
	slotFree    [][]float64 // worker-slot bookkeeping for Gantt traces (only when recording)

	events laneQueue
	deliveries

	done int
	// res is its own allocation: a Result inside sim would keep the whole
	// run's tables reachable for as long as the caller holds it.
	res *Result
}

func newSim(g dag.Graph, b int, d dist.Distribution, m Machine, opt Options) (*sim, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	policy, err := opt.Scheduler.policy()
	if err != nil {
		return nil, err
	}
	P := d.Nodes()
	p := g.Program()
	s := &sim{inf: dag.Infer(p, d.Owner), b: b, m: m, rec: opt.Recorder, policy: policy,
		tree: opt.Broadcast == cluster.BroadcastTree, flops: p.Flops, bytes: p.OutputBytes, res: &Result{}}

	s.rate = make([]float64, P)
	for node := range s.rate {
		s.rate[node] = m.FlopsPerWorker
	}
	if opt.NodeSpeed != nil {
		if len(opt.NodeSpeed) != P {
			return nil, fmt.Errorf("simulate: %d node speeds for %d nodes", len(opt.NodeSpeed), P)
		}
		for node, v := range opt.NodeSpeed {
			if !positive(v) {
				return nil, fmt.Errorf("simulate: node %d speed %g", node, v)
			}
			s.rate[node] = m.FlopsPerWorker * v
		}
	}

	s.ready = make([]sched.Heap, P)
	s.freeWorkers = make([]int, P)
	for node := range s.ready {
		s.ready[node] = sched.NewHeap(s.policy.Tie())
		s.freeWorkers[node] = m.Workers
	}
	s.nicOut = make([]float64, P)
	s.nicIn = make([]float64, P)
	s.events = laneQueue{lanes: make([]lane, P)}
	if s.rec != nil {
		s.slotFree = make([][]float64, P)
		for node := range s.slotFree {
			s.slotFree[node] = make([]float64, m.Workers)
		}
	}
	s.res.BusyTime = make([]float64, P)
	s.res.TasksPerNode = make([]int, P)
	s.res.TotalFlops = g.TotalFlops(b)
	s.res.SentBytes = make([]int64, P)
	s.res.RecvBytes = make([]int64, P)
	return s, nil
}

func (s *sim) run() error {
	// Seed: the tasks with no dependencies, all of them in the first
	// iteration (dag.Program.Iterations).
	s.infer(0)
	for pos := int32(0); pos < s.inf.End(); pos++ {
		if s.inf.NumPreds(pos) == 0 {
			s.release(pos)
		}
	}
	for node := range s.ready {
		s.dispatch(node, 0)
	}
	for !s.events.empty() {
		ev := s.events.pop()
		if ev.node >= 0 {
			s.complete(int(ev.node), ev.at, ev.time)
		} else {
			s.arrive(^ev.node, int(ev.at), ev.time)
		}
		if ev.time > s.res.Makespan {
			s.res.Makespan = ev.time
		}
	}
	if err := s.inf.Err(); err != nil {
		return err
	}
	if n := int(s.inf.End()); s.inf.Next() || s.done != n {
		return fmt.Errorf("simulate: executed %d of %d tasks — dependency deadlock", s.done, n)
	}
	return nil
}

// infer runs the inference until the task at pos is settled.
func (s *sim) infer(pos int32) {
	for pos >= s.inf.Settled() && s.inf.Next() {
		s.live = max(s.live, s.inf.Live())
	}
}

// release queues a task whose last dependency was just met, without
// dispatching: successors of one completion (or one arrival) become ready at
// the same instant, so the dispatch decision is made once over the full set —
// priority picks among all of them, exactly as the real engine's dispatch
// loop runs after its release sweep.
func (s *sim) release(pos int32) {
	s.ready[s.inf.Owner(pos)].Push(s.policy.Key(s.inf.Task(pos)), pos)
}

func (s *sim) dispatch(node int, now float64) {
	for s.freeWorkers[node] > 0 && !s.ready[node].Empty() {
		pos := s.ready[node].Pop()
		s.freeWorkers[node]--
		t := s.inf.Task(pos)
		dur := s.flops(t, s.b) / s.rate[node]
		s.res.BusyTime[node] += dur
		s.res.TasksPerNode[node]++
		if s.rec != nil {
			worker := 0
			for w, free := range s.slotFree[node] {
				if free <= now+1e-15 {
					worker = w
					break
				}
			}
			s.slotFree[node][worker] = now + dur
			s.rec.RecordTask(node, worker, t, now, now+dur)
		}
		s.events.push(s.events.durLane(dur), event{time: now + dur, node: int32(node), at: pos})
	}
}

// complete ends the kernel of the task at pos on node: its local successors
// are released, its output tile leaves for every remote consumer, the
// inference may forget the task, and the freed worker picks its next task.
func (s *sim) complete(node int, pos int32, now float64) {
	s.done++
	s.freeWorkers[node]++
	s.infer(pos)
	d := s.publish(pos)
	s.inf.Done(pos)
	if d >= 0 {
		k := len(s.records[d].Dsts)
		if s.tree && k > 1 {
			s.fanout(node, d, 0, k, now)
		} else {
			for at := 0; at < k; at++ {
				s.sendHop(node, d, at, at+1, now)
			}
		}
	}
	s.dispatch(node, now)
}

// arrive lands a hop of delivery d on the node at position at of its
// destination list: the tile it carries was the one remote input each of
// that destination's waiters was waiting on from this producer.
func (s *sim) arrive(d int32, at int, now float64) {
	// A tree hop carries its subtree's relay obligation: the recipient's
	// NIC starts forwarding the moment the tile lands, pipelining the rest
	// of the broadcast behind this hop.
	r := &s.records[d]
	node, end := r.Dsts[at], int(r.relayEnd[at])
	if end > at+1 {
		s.res.Forwards += s.fanout(node, d, at+1, end, now)
	}
	s.deliver(d, at)
	s.dispatch(node, now)
}

// fanout sends the tile of delivery d from src down the binomial tree over
// the record's destinations [lo, hi) — the same tree, by position, that
// cluster.TreeFanout builds for the real runtime — and returns the number of
// hops src transmitted.
func (s *sim) fanout(src int, d int32, lo, hi int, now float64) int64 {
	hops := int64(0)
	for step := 1; step <= hi-lo; step <<= 1 {
		child, end := cluster.TreeChild(hi-lo, step)
		s.sendHop(src, d, lo+child, lo+end, now)
		hops++
	}
	return hops
}

// sendHop models one physical transmission of delivery d from src to the
// record's destination at: sender NIC serialization, then latency, then
// receiver NIC. [at+1, end) is what the recipient must relay onward when the
// hop arrives.
func (s *sim) sendHop(src int, d int32, at, end int, now float64) {
	r := &s.records[d]
	r.relayEnd[at] = int32(end)
	dst, msgBytes := r.Dsts[at], r.bytes
	m := &s.m
	transferTime := float64(msgBytes) / m.LinkBandwidth
	depart := max(now, s.nicOut[src])
	sendEnd := depart + transferTime
	s.nicOut[src] = sendEnd
	recvEnd := max(sendEnd+m.Latency, s.nicIn[dst]) + transferTime
	s.nicIn[dst] = recvEnd
	s.res.Hops++
	s.res.SentBytes[src] += int64(msgBytes)
	s.res.RecvBytes[dst] += int64(msgBytes)
	if s.rec != nil {
		s.rec.RecordMessage(src, dst, depart, recvEnd, msgBytes)
	}
	s.events.push(int32(dst), event{time: recvEnd, node: ^d, at: int32(at)})
}
