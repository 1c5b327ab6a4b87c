package runtime

import (
	"fmt"
	"slices"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/tile"
)

// resilience is the re-request layer's state, built only when the normalized
// Options.ArrivalTimeout is positive (see the package comment). Two rules
// make it, each decided in one place: a version's arrival clock starts when a
// task blocks on it (blocked), and an owner asked for a version before it
// publishes it answers at publication (answer, publish). The elastic layer
// reaches it through its methods alone.
type resilience struct {
	e       *engine
	arrival time.Duration
	maxReq  int // Options.MaxReRequests

	// published caches the versions this node broadcast — the owner's own
	// tile, which no task writes again — to answer requests after the
	// broadcast, or after the run (engine.absorb). held lists, each
	// once, the ranks that asked for a version not published yet: its plan
	// readers or their adopters. pending is each armed tag's re-request
	// state, heard the ranks this node took any message from.
	published map[cluster.Tag]*tile.Tile
	held      map[cluster.Tag][]int
	pending   map[cluster.Tag]*pendingWait
	heard     []bool
}

// pendingWait is the re-request state of one armed remote tile version.
type pendingWait struct {
	deadline time.Time
	backoff  time.Duration
	attempts int
	asked    int // requests to target, the rank asked last: what the budget caps
	target   int
}

// relayLedger marks the tree-broadcast tags whose Forward obligation a node
// has honored. Every engine carries it, armed or not — a shared cluster's
// network seam may duplicate hops under a job that armed nothing — so the
// core holds it by value; the map appears with the first Forward-carrying
// message, and flat runs never allocate it. It is deliberately kept apart
// from the slots' fed marks: when an interior relay hop dropped the original
// copy and a Resend heal (no Forward list) landed first, the slot is fed, but
// the late original still carries the subtree and must be relayed exactly
// once — keying the relay dedup on fed would strand the subtree behind its
// members' own re-request timeouts.
type relayLedger struct{ relayed map[cluster.Tag]bool }

// first reports whether tag's Forward obligation is still owed, and marks it
// honored. It is asked under the node lock, by whichever goroutine takes the
// message in — during the run and after it — so one tag is relayed once.
func (l *relayLedger) first(tag cluster.Tag) bool {
	if l.relayed[tag] {
		return false
	}
	if l.relayed == nil {
		l.relayed = make(map[cluster.Tag]bool)
	}
	l.relayed[tag] = true
	return true
}

func newResilience(e *engine, opt Options) *resilience {
	return &resilience{
		e:         e,
		arrival:   opt.ArrivalTimeout,
		maxReq:    opt.MaxReRequests,
		published: make(map[cluster.Tag]*tile.Tile),
		held:      make(map[cluster.Tag][]int),
		pending:   make(map[cluster.Tag]*pendingWait),
		heard:     make([]bool, e.pl.Nodes()),
	}
}

// start arms the node's own share as the run starts and returns the ticker
// of the overdue sweep, or nil when nothing is awaited and nothing ever will
// be; elastic nodes always get one, as an adopted share may await versions.
// The sweep runs every sixteenth of the timeout, floored at 1ms: a coarser
// one sends together the requests of every clock that ran out within its
// period — a node stalled on a lost version, and consumers that blocked a
// little later on what it is about to publish: versions late, not lost.
func (r *resilience) start() *time.Ticker {
	e := r.e
	if len(e.recv) == 0 && e.el == nil {
		return nil
	}
	r.arm(&e.share)
	return time.NewTicker(max(r.arrival/16, time.Millisecond))
}

// arm applies the arming rule to every waiting task of share sh: the node's
// own at run start, an adopted one at adoption.
func (r *resilience) arm(sh *share) {
	for k, rem := range sh.remaining {
		if rem > 0 {
			r.blocked(sh, sh.lo+int32(k))
		}
	}
}

// blocked is the arming rule, asked whenever a dependency of share sh's task
// t resolves and others remain: once t waits for nothing but remote versions,
// the clock of each starts unless it runs already — all at once, so a task
// short two lost versions asks for both. A version some share of this node
// produces is delivered here, never asked for. A task's remote dependencies
// are inputs it reads (dag.Inference infers only read-after-write edges
// across nodes), so its unfed input slots are the versions it waits for.
func (r *resilience) blocked(sh *share, t int32) {
	e, pl := r.e, r.e.pl
	refs := pl.Inputs(t)
	unfed := int32(0)
	for k, ref := range refs {
		if ref < 0 && !sh.fed[^ref-sh.slotLo] && !slices.Contains(refs[:k], ref) {
			unfed++
		}
	}
	if unfed != sh.remaining[t-sh.lo] {
		return
	}
	now := time.Now()
	for _, ref := range refs {
		if ref >= 0 || sh.fed[^ref-sh.slotLo] {
			continue
		}
		producer := pl.SlotProducer(^ref)
		if tag := e.tagOf(producer); r.pending[tag] == nil && e.shareFor(pl.Owner(producer)) == nil {
			r.pending[tag] = &pendingWait{deadline: now.Add(r.arrival), backoff: r.arrival}
		}
	}
}

// arrived is the take-in call point (engine.deliver): the awaited version tag
// was taken in, so its wait ends — on the trace as a recovered row when it
// came over the wire only after this node re-requested it: the timeout path
// healed a lost delivery. from is the delivering rank, or -1 when an adoption
// replay produced the version on this node — nothing crossed the wire.
func (r *resilience) arrived(tag cluster.Tag, from int) {
	if p, ok := r.pending[tag]; ok {
		delete(r.pending, tag)
		if p.attempts > 0 && from >= 0 {
			r.e.fault("recovered", from, r.e.rank, tag.String())
		}
	}
}

// publish caches a version this node just sent to dsts — by reference, as no
// task writes a sent version again — and answers the requests held for it: a requester in dsts through that
// send, any other (an adopter) with a Resend. The core calls it whenever a
// remote consumer exists, even one whose death emptied dsts: its adopter may
// still ask.
func (r *resilience) publish(tag cluster.Tag, out *tile.Tile, dsts []int) {
	r.published[tag] = out
	for _, from := range r.held[tag] {
		if !slices.Contains(dsts, from) {
			r.resend(from, tag, out)
		}
	}
	delete(r.held, tag)
}

// cached returns the published version of tag, or nil.
func (r *resilience) cached(tag cluster.Tag) *tile.Tile { return r.published[tag] }

// answer serves one request: from the cache, or at publication.
func (r *resilience) answer(msg cluster.Message) {
	if cached := r.cached(msg.Tag); cached != nil {
		r.resend(msg.From, msg.Tag, cached)
	} else if !slices.Contains(r.held[msg.Tag], msg.From) {
		r.held[msg.Tag] = append(r.held[msg.Tag], msg.From)
	}
}

// resend redelivers a published version. Only a node whose run is not over
// records the redelivery: after it, the recorder is the caller's.
func (r *resilience) resend(to int, tag cluster.Tag, v *tile.Tile) {
	r.e.comm.Resend(to, tag, v)
	if !r.e.over {
		r.e.fault("redeliver", r.e.rank, to, tag.String())
	}
}

// onTick re-requests every armed tag past its deadline from its owner — or
// its adopter, once the owner is dead — doubling the deadline each retry,
// capped. It is also the failure detector of last resort: a tag whose budget
// (Options.MaxReRequests) of requests to one target this node never heard
// from runs dry fails the node with ErrUndelivered or, under elastic
// recovery, has the target presumed dead. Silence from a rank once heard from
// is no evidence: an owner says nothing before it publishes, and a rank that
// stops for good says so (cluster.NoteDown) or closes the plane.
func (r *resilience) onTick() error {
	e, el := r.e, r.e.el
	now := time.Now()
	for tag, p := range r.pending {
		if now.Before(p.deadline) {
			continue
		}
		target := e.pl.Dist().Owner(int(tag.I), int(tag.J))
		if el != nil {
			target = el.liveOwner(target)
		}
		if target == p.target && !r.heard[target] && p.asked >= r.maxReq && r.maxReq > 0 {
			if el == nil {
				return fmt.Errorf("node %d: tile (%d,%d) v%d from node %d undelivered after %d re-requests: %w",
					e.rank, tag.I, tag.J, tag.V, target, p.asked, ErrUndelivered)
			}
			el.markDead(target, true)
			target = el.liveOwner(target)
		}
		switch {
		case target == e.rank: // this node adopted the owner: its replay delivers the version
			delete(r.pending, tag)
			continue
		case target < 0: // the dead owner has no adopter to ask yet
			p.deadline = now.Add(p.backoff)
			continue
		case target != p.target: // a first target, or the owner's adopter: a new budget
			p.target, p.asked = target, 0
		}
		e.comm.Request(target, tag)
		p.attempts++
		p.asked++
		p.backoff = min(2*p.backoff, 8*r.arrival)
		p.deadline = now.Add(p.backoff)
		e.fault("re-request", e.rank, target, tag.String())
	}
	return nil
}
