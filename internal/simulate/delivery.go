package simulate

import (
	"slices"

	"anybc/internal/dag"
)

// delivery is one output tile on its way to the remote nodes that consume
// it: its route (destinations, and the waiters of each), wire size and count
// of destinations not reached yet. Destination at forwards the tile on arrival
// to the destinations [at+1, relayEnd[at]) — none on a flat send and at a
// tree's leaves — so no hop carries a copy of a relay list. A record lives
// while hops that carry its tile are queued.
type delivery struct {
	dag.Route
	bytes, pending int
	relayEnd       []int32
}

// deliveries is the pool of delivery records.
type deliveries struct {
	records []delivery
	idle    []int32 // free list: indices into records
}

// publish routes the output of the task at pos, which just completed: it
// releases the successors on the producer's node and returns the delivery
// record of the others, or -1 when every consumer is local. Each destination
// is one logical message (the Equation (1)/(2) quantity, whatever the
// transport); a reduction partial is also reduce traffic, the routing
// Comm.SendReduce takes in the real runtime.
func (s *sim) publish(pos int32) int32 {
	var d int32
	if last := len(s.idle) - 1; last >= 0 {
		d, s.idle = s.idle[last], s.idle[:last]
	} else {
		d = int32(len(s.records))
		s.records = append(s.records, delivery{})
	}
	r := &s.records[d]
	s.inf.Route(pos, &r.Route)
	for _, q := range r.Local {
		if s.inf.Release(q) {
			s.release(q)
		}
	}
	k := len(r.Dsts)
	if k == 0 {
		s.idle = append(s.idle, d)
		return -1
	}
	r.bytes = 8 * s.b * s.b
	if s.bytes != nil {
		r.bytes = s.bytes(s.inf.Task(pos), s.b)
	}
	r.pending = k
	r.relayEnd = slices.Grow(r.relayEnd[:0], k)[:k]
	s.res.Messages += int64(k)
	s.res.Bytes += int64(r.bytes) * int64(k)
	if r.Reduce {
		s.res.Reduces++
		s.res.ReduceBytes += int64(r.bytes)
	}
	return d
}

// deliver releases the successors destination at of delivery d owns — in
// successor order, the order in which a walk over the producer's successors
// filtered by owner would meet them — and recycles the record once every
// destination has been served.
func (s *sim) deliver(d int32, at int) {
	r := &s.records[d]
	for _, q := range r.Waiters(at) {
		if s.inf.Release(q) {
			s.release(q)
		}
	}
	if r.pending--; r.pending == 0 {
		r.Dsts = r.Dsts[:0]
		s.idle = append(s.idle, d)
	}
}
