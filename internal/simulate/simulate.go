package simulate

import (
	"fmt"

	"anybc/internal/cluster"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/sched"
	"anybc/internal/trace"
)

// Options configures a simulation run. A message carries one output tile of
// 8·b² bytes.
type Options struct {
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

// sim is the state of one run: the producer's feed, and the event loop's
// O(P) node state, the pages it holds and two pools that grow to the peak of
// what is in flight and no further: queued events and delivery records.
// Memory is the window of iterations the run is working on, the pages of at
// most one iteration ahead of it, and the inference's iterations (feed.go).
type sim struct {
	feed  *feed
	iters int32 // the program's iterations, at least 1
	recvd int32 // iterations taken from the producer
	tasks int   // the tasks on them
	pages pageRing
	// The tasks on the pages held, and the most at once: the event loop's
	// window, a function of the event order alone.
	held, window int

	b    int
	m    Machine
	rec  *trace.Recorder
	tree bool
	// From the program: a task's flops.
	flops     func(t dag.Task, b int) float64
	tileBytes int       // 8·b², the wire size of every message
	rate      []float64 // flop/s of one worker, by node

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
	P := d.Nodes()
	p := g.Program()
	s := &sim{iters: int32(max(p.Iterations, 1)), b: b, m: m, rec: opt.Recorder,
		tree: opt.Broadcast == cluster.BroadcastTree, flops: p.Flops, tileBytes: 8 * b * b, res: &Result{}}

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
		s.ready[node] = sched.NewHeap(sched.TieLIFO)
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
	s.feed = &feed{inf: dag.Infer(p, d.Owner), pages: make(chan *page, 1), room: make(chan struct{}, 1),
		quit: make(chan struct{}), exit: make(chan struct{})}
	s.feed.room <- struct{}{}
	return s, nil
}

// run starts the producer, simulates, and stops the producer before it
// returns, whatever it returns.
func (s *sim) run() error {
	go s.feed.produce()
	defer s.stop()
	// Seed: the tasks with no dependencies, all of them in the first
	// iteration (dag.Program.Iterations).
	if !s.take() {
		return s.feed.err
	}
	for node := range s.ready {
		s.dispatch(node, 0)
	}
	for !s.events.empty() {
		ev := s.events.pop()
		if ev.node >= 0 {
			if err := s.complete(int(ev.node), ev.at, ev.time); err != nil {
				return err
			}
		} else {
			s.arrive(^ev.node, int(ev.at), ev.time)
		}
		if ev.time > s.res.Makespan {
			s.res.Makespan = ev.time
		}
	}
	// Nothing is left to happen: the run is over if the program is.
	more := s.recvd < s.iters
	if more {
		if more = s.take(); !more && s.feed.err != nil {
			return s.feed.err
		}
	}
	if more || s.done != s.tasks {
		return fmt.Errorf("simulate: executed %d of %d tasks — dependency deadlock", s.done, s.tasks)
	}
	return nil
}

// stop ends the producer and waits until it has returned.
func (s *sim) stop() {
	close(s.feed.quit)
	<-s.feed.exit
}

// take receives the next iteration from the producer, holds its pages, sets
// each task's count of unmet dependencies and queues the tasks that wait on
// nothing — only the first iteration has any. That walk reads the new
// entries in order, so they reach this core's cache as one stream rather
// than one miss at each task's first release. It returns false once the
// producer has closed the feed: at the end of the program, or on an
// inference error.
func (s *sim) take() bool {
	first, ok := <-s.feed.pages
	if !ok {
		return false
	}
	s.feed.room <- struct{}{} // the producer took the token to page this one: room is empty
	for p := first; p != nil; p = p.next {
		s.pages.put(p)
		s.tasks += int(p.n)
		s.held += int(p.n)
		for o := int32(0); o < p.n; o++ {
			if p.wait[o] = p.e[o].preds; p.wait[o] == 0 {
				s.enqueue(&p.e[o], int32(p.seq)<<pageBits|o)
			}
		}
	}
	s.recvd++
	s.window = max(s.window, s.held)
	return true
}

// enqueue queues task h, entry e, whose dependencies are all met, without
// dispatching: successors of one completion (or one arrival) become ready at
// the same instant, so the dispatch decision is made once over the full set —
// priority picks among all of them, exactly as the real engine's dispatch
// loop runs after its release sweep.
func (s *sim) enqueue(e *entry, h int32) {
	s.ready[e.owner].Push(sched.Key(e.t), h)
}

// release counts one met dependency of task h and queues it if that was the
// last.
func (s *sim) release(h int32) {
	p, o := s.pages.at(h), h&offMask
	if p.wait[o]--; p.wait[o] == 0 {
		s.enqueue(&p.e[o], h)
	}
}

// ran counts one task or delivery of page p as finished and returns the page
// to the producer when nothing on it is left.
func (s *sim) ran(p *page) {
	if p.left--; p.left == 0 {
		s.held -= int(p.n)
		s.pages.drop(p)
		s.feed.give(p)
	}
}

func (s *sim) dispatch(node int, now float64) {
	for s.freeWorkers[node] > 0 && !s.ready[node].Empty() {
		h := s.ready[node].Pop()
		s.freeWorkers[node]--
		t := s.pages.at(h).e[h&offMask].t
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
		s.events.push(s.events.durLane(dur), event{time: now + dur, node: int32(node), at: h})
	}
}

// complete ends the kernel of task h on node: its local successors are
// released, its output tile leaves for every remote consumer, and the freed
// worker picks its next task. The task's route is on its page once the
// producer has inferred the next iteration (the last one settles itself).
func (s *sim) complete(node int, h int32, now float64) error {
	s.done++
	s.freeWorkers[node]++
	p, o := s.pages.at(h), h&offMask
	for p.iter+1 >= s.recvd && s.recvd < s.iters {
		if !s.take() {
			return s.feed.err
		}
	}
	for _, q := range p.locals(o) {
		s.release(q)
	}
	if k := int(p.r[o+1].dst - p.r[o].dst); k > 0 {
		d := s.publish(p, o, k)
		if s.tree && k > 1 {
			s.fanout(node, d, 0, k, now)
		} else {
			for at := 0; at < k; at++ {
				s.sendHop(node, d, at, at+1, now)
			}
		}
	}
	s.ran(p)
	s.dispatch(node, now)
	return nil
}

// arrive lands a hop of delivery d on the node at position at of its
// destination list: the tile it carries was the one remote input each of
// that destination's waiters was waiting on from this producer.
func (s *sim) arrive(d int32, at int, now float64) {
	// A tree hop carries its subtree's relay obligation: the recipient's
	// NIC starts forwarding the moment the tile lands, pipelining the rest
	// of the broadcast behind this hop.
	r := &s.records[d]
	node, end := r.dst(at), int(r.relayEnd[at])
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
	dst, msgBytes := r.dst(at), s.tileBytes
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
