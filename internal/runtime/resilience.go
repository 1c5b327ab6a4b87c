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
// publishes it answers at publication (answer, publish).
type resilience struct {
	e       *engine
	arrival time.Duration
	maxReq  int // Options.MaxReRequests

	// published caches the versions this node broadcast — the owner's own
	// tile, which no task writes again — to answer requests after the
	// broadcast, or after the run (engine.absorb). held lists, each
	// once, the ranks that asked for a version not published yet. pending is
	// each armed tag's re-request state, heard the ranks this node took any
	// message from.
	published map[cluster.Tag]*tile.Tile
	held      map[cluster.Tag][]int
	pending   map[cluster.Tag]*pendingWait
	heard     []bool
}

// pendingWait is the re-request state of one armed remote tile version:
// asked counts the requests sent to its owner, which the budget caps.
type pendingWait struct {
	deadline time.Time
	backoff  time.Duration
	asked    int
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

// start applies the arming rule to every waiting task as the run starts and
// returns the ticker of the overdue sweep, or nil when the node awaits no
// remote version at all. The sweep runs every sixteenth of the timeout,
// floored at 1ms: a coarser one sends together the requests of every clock
// that ran out within its period — a node stalled on a lost version, and
// consumers that blocked a little later on what it is about to publish:
// versions late, not lost.
func (r *resilience) start() *time.Ticker {
	e := r.e
	if len(e.recv) == 0 {
		return nil
	}
	for k, rem := range e.remaining {
		if rem > 0 {
			r.blocked(e.lo + int32(k))
		}
	}
	return time.NewTicker(max(r.arrival/16, time.Millisecond))
}

// blocked is the arming rule, asked whenever a dependency of the node's task
// t resolves and others remain: once t waits for nothing but remote versions,
// the clock of each starts unless it runs already — all at once, so a task
// short two lost versions asks for both. A task's remote dependencies are
// inputs it reads (dag.Inference infers only read-after-write edges across
// nodes), so its unfed input slots are the versions it waits for.
func (r *resilience) blocked(t int32) {
	e, pl := r.e, r.e.pl
	refs := pl.Inputs(t)
	unfed := int32(0)
	for k, ref := range refs {
		if ref < 0 && !e.fed[^ref-e.slotLo] && !slices.Contains(refs[:k], ref) {
			unfed++
		}
	}
	if unfed != e.remaining[t-e.lo] {
		return
	}
	now := time.Now()
	for _, ref := range refs {
		if ref >= 0 || e.fed[^ref-e.slotLo] {
			continue
		}
		if tag := e.tagOf(pl.SlotProducer(^ref)); r.pending[tag] == nil {
			r.pending[tag] = &pendingWait{deadline: now.Add(r.arrival), backoff: r.arrival}
		}
	}
}

// arrived is the take-in call point (engine.onArrival): the awaited version
// tag was taken in from rank from, so its wait ends — on the trace as a
// recovered row when it came only after this node re-requested it: the
// timeout path healed a lost delivery.
func (r *resilience) arrived(tag cluster.Tag, from int) {
	if p, ok := r.pending[tag]; ok {
		delete(r.pending, tag)
		if p.asked > 0 {
			r.e.fault("recovered", from, r.e.rank, tag.String())
		}
	}
}

// publish caches a version this node just sent to dsts — by reference, as no
// task writes a sent version again — and answers the requests held for it: a
// requester in dsts through that send, any other with a Resend.
func (r *resilience) publish(tag cluster.Tag, out *tile.Tile, dsts []int) {
	r.published[tag] = out
	for _, from := range r.held[tag] {
		if !slices.Contains(dsts, from) {
			r.resend(from, tag, out)
		}
	}
	delete(r.held, tag)
}

// answer serves one request: from the cache, or at publication.
func (r *resilience) answer(msg cluster.Message) {
	if cached := r.published[msg.Tag]; cached != nil {
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

// onTick re-requests every armed tag past its deadline from its owner,
// doubling the deadline each retry, capped. It is also the failure detector
// of last resort: a tag whose budget (Options.MaxReRequests) of requests to
// an owner this node never heard from runs dry fails the node with
// ErrUndelivered. Silence from a rank once heard from is no evidence: an
// owner says nothing before it publishes, and a rank that stops for good
// closes the plane.
func (r *resilience) onTick() error {
	e := r.e
	now := time.Now()
	for tag, p := range r.pending {
		if now.Before(p.deadline) {
			continue
		}
		owner := e.pl.Dist().Owner(int(tag.I), int(tag.J))
		if !r.heard[owner] && p.asked >= r.maxReq && r.maxReq > 0 {
			return fmt.Errorf("node %d: tile (%d,%d) v%d from node %d undelivered after %d re-requests: %w",
				e.rank, tag.I, tag.J, tag.V, owner, p.asked, ErrUndelivered)
		}
		e.comm.Request(owner, tag)
		p.asked++
		p.backoff = min(2*p.backoff, 8*r.arrival)
		p.deadline = now.Add(p.backoff)
		e.fault("re-request", e.rank, owner, tag.String())
	}
	return nil
}
