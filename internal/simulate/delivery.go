package simulate

// delivery is one output tile on its way to the remote nodes that consume
// it: the destinations in the order the producer's successor walk first met
// them, and under each the successors it owns, in walk order. It is filled by
// the one walk a completion makes, lives while hops that carry the tile are
// queued, and goes back to the free list when the last of them has landed —
// so the simulator visits each dependency edge once (here, at filing) and
// touches it once more at its arrival, without walking the graph again.
type delivery struct {
	bytes   int // wire size of the tile
	pending int // destinations whose hop has not landed yet
	dests   []dest
	edges   []edge
}

// dest is one destination node, the list of edges filed under it, threaded
// through delivery.edges, and — once its hop is on the wire — the end of the
// range [its own position + 1, relayEnd) of destinations it forwards the tile
// to on arrival: empty on a flat send and at a tree's leaves. Relay lists are
// ranges of the record, so no hop carries a copy.
type dest struct {
	node       int32
	head, tail int32
	relayEnd   int32
}

// edge is one remote successor: its position and the next edge of the same
// destination (-1 ends the list).
type edge struct{ pos, next int32 }

// deliveries is the pool of delivery records and the state of the walk that
// fills one.
type deliveries struct {
	records []delivery
	idle    []int32 // free list: indices into records
	// During route: the producer's node, the record being filled (-1 until a
	// remote successor shows up), and each node's position in its dests (-1
	// outside the record; reset when the walk ends).
	src      int32
	cur      int32
	position []int32
}

// route is the routing rule, written once: walking the successors of the
// task at pos a single time, in submission order, it satisfies the ones src
// owns itself and files every other under its owner — the distinct remote
// owners, in first-visit order, are the destinations of the task's output
// tile, one logical message each (the Equation (1)/(2) quantity, independent
// of the transport), and a reduction partial with its single destination is
// counted as reduce traffic, the routing Comm.SendReduce takes in the real
// runtime. It returns the filled delivery record, or -1 when every consumer
// is local.
func (s *sim) route(pos, src int32) int32 {
	s.src, s.cur = src, -1
	s.inf.Succs(pos, s.visit)
	if s.cur < 0 {
		return -1
	}
	r := &s.records[s.cur]
	for _, dst := range r.dests {
		s.position[dst.node] = -1
	}
	k := int64(len(r.dests))
	r.pending = len(r.dests)
	t := s.inf.Task(pos)
	r.bytes = 8 * s.b * s.b
	if s.bytes != nil {
		r.bytes = s.bytes(t, s.b)
	}
	s.res.Messages += k
	s.res.Bytes += int64(r.bytes) * k
	if s.partial != nil && k == 1 && s.partial(t) {
		s.res.Reduces++
		s.res.ReduceBytes += int64(r.bytes)
	}
	return s.cur
}

// file is route's visit of the successor at position q.
func (s *sim) file(q int32, dst int) {
	owner := int32(dst)
	if owner == s.src {
		if s.inf.Release(q) {
			s.release(q)
		}
		return
	}
	if s.cur < 0 {
		if last := len(s.idle) - 1; last >= 0 {
			s.cur, s.idle = s.idle[last], s.idle[:last]
		} else {
			s.cur = int32(len(s.records))
			s.records = append(s.records, delivery{})
		}
	}
	r := &s.records[s.cur]
	e := int32(len(r.edges))
	if at := s.position[owner]; at < 0 {
		s.position[owner] = int32(len(r.dests))
		r.dests = append(r.dests, dest{node: owner, head: e, tail: e})
	} else {
		r.edges[r.dests[at].tail].next = e
		r.dests[at].tail = e
	}
	r.edges = append(r.edges, edge{pos: q, next: -1})
}

// deliver satisfies the edges filed under position at of delivery d — in
// successor order, the order in which a walk over the producer's successors
// filtered by owner would meet them — and recycles the record once every
// destination has been served.
func (s *sim) deliver(d int32, at int) {
	r := &s.records[d]
	for e := r.dests[at].head; e >= 0; e = r.edges[e].next {
		if q := r.edges[e].pos; s.inf.Release(q) {
			s.release(q)
		}
	}
	if r.pending--; r.pending == 0 {
		r.dests, r.edges = r.dests[:0], r.edges[:0]
		s.idle = append(s.idle, d)
	}
}
