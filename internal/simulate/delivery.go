package simulate

import "slices"

// delivery is one output tile on its way to the remote nodes that consume
// it: the page and offset of the task that produced it, whose route lists the
// destinations and the waiters of each, and its count of destinations not
// reached yet. Destination at forwards the tile on arrival
// to the destinations [at+1, relayEnd[at]) — none on a flat send and at a
// tree's leaves — so no hop carries a copy of a relay list. A record lives
// while hops that carry its tile are queued, and keeps its page held.
type delivery struct {
	p        *page
	o        int32
	pending  int
	relayEnd []int32
}

// dst returns the node at position at of the record's destination list.
func (r *delivery) dst(at int) int { return int(r.p.dst[int(r.p.r[r.o].dst)+at].node) }

// deliveries is the pool of delivery records.
type deliveries struct {
	records []delivery
	idle    []int32 // free list: indices into records
}

// publish returns a delivery record for the output of task o of page p,
// which just completed and has k remote destinations. Each destination is one
// logical message (the Equation (1)/(2) quantity, whatever the transport); a
// reduction partial's bytes are also counted as reduce traffic. Only the
// simulator runs the replicated LU whose partials these are: the runtime's
// kernels compute no partial update.
func (s *sim) publish(p *page, o int32, k int) int32 {
	var d int32
	if last := len(s.idle) - 1; last >= 0 {
		d, s.idle = s.idle[last], s.idle[:last]
	} else {
		d = int32(len(s.records))
		s.records = append(s.records, delivery{})
	}
	r := &s.records[d]
	r.p, r.o = p, o
	p.left++
	r.pending = k
	r.relayEnd = slices.Grow(r.relayEnd[:0], k)[:k]
	s.res.Messages += int64(k)
	s.res.Bytes += int64(s.tileBytes) * int64(k)
	if p.reduce[o] {
		s.res.ReduceBytes += int64(s.tileBytes)
	}
	return d
}

// deliver releases the successors destination at of delivery d owns — in
// successor order, the order in which a walk over the producer's successors
// filtered by owner would meet them — and recycles the record once every
// destination has been served.
func (s *sim) deliver(d int32, at int) {
	r := &s.records[d]
	for _, q := range r.p.waiters(r.o, int32(at)) {
		s.release(q)
	}
	if r.pending--; r.pending == 0 {
		p := r.p
		r.p = nil
		s.idle = append(s.idle, d)
		s.ran(p)
	}
}
