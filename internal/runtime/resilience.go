package runtime

import (
	"fmt"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/tile"
)

// resilience is the re-request layer's state, built only when the normalized
// Options.ArrivalTimeout is positive (see the package comment). The elastic
// layer reaches it through its methods alone.
type resilience struct {
	e       *engine
	arrival time.Duration
	maxReq  int // Options.MaxReRequests

	// published caches the tile versions this node broadcast, so re-requests
	// can be answered even after the publishing task's buffer was updated in
	// place — or after this node's run is over, by whichever goroutine
	// delivers the request (engine.absorb). A final version is the owner's
	// own tile, any other a private snapshot.
	published map[cluster.Tag]*tile.Tile
	// pending carries the re-request state of each awaited tag. heard counts,
	// by sender, the messages of any kind the node took in: the liveness
	// evidence the silence budget weighs (onTick).
	pending map[cluster.Tag]*pendingWait
	heard   []int
}

// pendingWait is the re-request state of one awaited remote tile version.
type pendingWait struct {
	deadline time.Time
	backoff  time.Duration
	attempts int
	silent   int // requests in a row the target stayed silent through: what the budget caps
	heardAt  int // heard[target] when the tag was last found overdue
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
		pending:   make(map[cluster.Tag]*pendingWait),
		heard:     make([]int, e.pl.Nodes()),
	}
}

// start arms the protocol as the run starts: every awaited remote tile
// version not taken in yet gets an arrival clock, and the returned ticker —
// half the timeout — drives the overdue sweep. It returns nil when nothing is awaited
// and nothing ever will be; elastic nodes always get a ticker, because
// adoption registers new awaited tags mid-run even on a node that started
// with none. The sweep period is floored at 1ms: a sub-2ns ArrivalTimeout
// used to truncate to a zero ticker period and panic.
func (r *resilience) start() *time.Ticker {
	e := r.e
	if len(e.recv) == 0 && e.el == nil {
		return nil
	}
	now := time.Now()
	for s := range e.recv {
		if !e.fed[s] {
			r.await(e.tagOf(e.pl.SlotProducer(e.slotLo+int32(s))), now)
		}
	}
	period := r.arrival / 2
	if period < time.Millisecond {
		period = time.Millisecond
	}
	return time.NewTicker(period)
}

// await starts — or, for a tag already awaited, restarts — tag's arrival
// clock on a fresh retry budget.
func (r *resilience) await(tag cluster.Tag, now time.Time) {
	p := r.pending[tag]
	if p == nil {
		p = &pendingWait{}
		r.pending[tag] = p
	}
	p.attempts, p.silent = 0, 0
	p.backoff, p.deadline = r.arrival, now.Add(r.arrival)
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

// The two methods below, with cached, are the elastic layer's whole access:
// adoption changes what this node awaits, and from whom.

// expect starts tag's arrival clock unless it already runs, and reports
// whether it started one.
func (r *resilience) expect(tag cluster.Tag, now time.Time) bool {
	if r.pending[tag] != nil {
		return false
	}
	r.await(tag, now)
	return true
}

// restart transfers a dead owner's delivery debts to its adopter: the retry
// budget of every version owner owed this node starts afresh, so the
// countdown that condemned the corpse is not held against the heir while it
// replays.
func (r *resilience) restart(owner int) {
	now := time.Now()
	for tag := range r.pending {
		if r.e.pl.Dist().Owner(int(tag.I), int(tag.J)) == owner {
			r.await(tag, now)
		}
	}
}

// publish caches a version this node just broadcast. A final version is
// cached by reference: no task writes its tile again. Any other is
// snapshotted, since out is updated in place by the tile's later writers and
// the broadcast content must be preserved separately. The core calls it
// whenever any remote consumer exists — even one whose death emptied today's
// destination list — because that consumer's adopter may still re-request
// the version.
func (r *resilience) publish(tag cluster.Tag, out *tile.Tile, final bool) {
	if !final {
		out = out.Clone()
	}
	r.published[tag] = out
}

// cached returns the published version of tag, or nil.
func (r *resilience) cached(tag cluster.Tag) *tile.Tile { return r.published[tag] }

// answer serves one version re-request from the published cache. A request
// for a version not yet published is dropped: the normal broadcast at
// completion covers it, and the requester's backoff retries if that
// broadcast is the delivery that gets lost. Only a node whose run is not over
// records the redelivery: after it, the recorder is the caller's.
func (r *resilience) answer(msg cluster.Message) {
	cached := r.cached(msg.Tag)
	if cached == nil {
		return
	}
	r.e.comm.Resend(msg.From, msg.Tag, cached)
	if !r.e.over {
		r.e.fault("redeliver", r.e.rank, msg.From, msg.Tag.String())
	}
}

// onTick sweeps the awaited remote tile versions and re-requests every one
// past its deadline from its owner (or, once the owner is dead, from its
// adopter), doubling the deadline each retry (capped) so a genuinely slow
// producer is not hammered. The sweep is also the failure detector of last
// resort: a tag whose retry budget (Options.MaxReRequests) runs dry — that
// many requests in a row with its owner never heard from — fails
// the node with ErrUndelivered on a plain resilient run, or — under elastic
// recovery — presumes the silent owner dead, gossips cluster.NoteDown, and
// restarts the budget against the adopter.
func (r *resilience) onTick() error {
	e, el := r.e, r.e.el
	now := time.Now()
	for tag, p := range r.pending {
		if now.Before(p.deadline) {
			continue
		}
		origOwner := e.pl.Dist().Owner(int(tag.I), int(tag.J))
		target := origOwner
		if el != nil {
			target = el.liveOwner(origOwner)
		}
		if target == e.rank || target < 0 {
			// We are the adopter ourselves (the replay will fulfill this tag
			// locally), or the dead owner has no adopter to ask: requesting
			// is pointless, just keep the deadline moving.
			p.deadline = now.Add(p.backoff)
			continue
		}
		if heard := r.heard[target]; heard != p.heardAt {
			// Something from the target has reached this node since this
			// version was last found overdue: the target is alive and
			// reachable, so the version is late, not lost for good — every
			// awaited version's clock starts at run start, long before most
			// producers run. Keep asking (a dropped delivery heals no other
			// way), but only requests into unbroken silence count against
			// the budget.
			p.silent, p.heardAt = 0, heard
		}
		if p.silent >= r.maxReq && r.maxReq > 0 {
			if el == nil {
				return fmt.Errorf("node %d: tile (%d,%d) v%d from node %d undelivered after %d re-requests: %w",
					e.rank, tag.I, tag.J, tag.V, target, p.silent, ErrUndelivered)
			}
			// Elastic escalation: the target has ignored the whole budget —
			// presume it dead, tell everyone, and start a fresh budget
			// against whoever adopts it (markDead restarts every wait the
			// dead node owed us).
			el.markDead(target, true)
			if target = el.liveOwner(origOwner); target == e.rank || target < 0 {
				continue
			}
		}
		e.comm.Request(target, tag)
		p.attempts++
		p.silent++
		p.backoff *= 2
		if maxB := 8 * r.arrival; p.backoff > maxB {
			p.backoff = maxB
		}
		p.deadline = now.Add(p.backoff)
		e.fault("re-request", e.rank, target, tag.String())
	}
	return nil
}
