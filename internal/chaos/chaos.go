// Package chaos injects deterministic network faults into the virtual
// cluster through the cluster.Network seam: per-message delays sampled from
// a seeded distribution, within-pair reordering, duplicate deliveries,
// transient drops redelivered after a timeout, permanent drops (healed only
// by the runtime's re-request protocol), and node crashes at a chosen task
// index (which exercise the comm.Abort poisoning path).
//
// # Determinism
//
// Reproducibility is the whole point: the same Config must produce the same
// faults no matter how goroutines interleave. A single shared random stream
// cannot give that — the order in which concurrent sends would consume it is
// scheduler-dependent — so the plan derives every decision from a pure
// function of (Config.Seed, message identity), where the identity is the
// (From, To, Tag, control-bit, attempt) tuple and attempt counts repeated
// sends of the same identity (redeliveries, request retries). The attempt
// counters are the plan's logical delivery clock: they advance per identity,
// not per wall-clock arrival, so two runs of the same workload draw
// identical verdicts for every message even though their wall-clock
// interleavings differ.
//
// A Plan carries per-run state (attempt counters, reorder holds): create a
// fresh Plan from the same Config for every run you want to reproduce.
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/trace"
)

// ErrInjectedCrash is the root cause carried by a node that the fault plan
// crashed at its configured task index. The runtime reports it through the
// same joined-error path as a genuine kernel failure.
var ErrInjectedCrash = errors.New("chaos: injected node crash")

// Config describes one deterministic fault plan. All probabilities are in
// [0, 1] and are drawn independently per message identity; the class
// probabilities (PDrop, PDropRedeliver, PDuplicate) partition one draw and
// must sum to at most 1. PDrop must stay below 1 so that request retries
// eventually get through and every run terminates.
type Config struct {
	// Seed drives every sampled decision.
	Seed int64

	// PDelay delays a delivery by a uniform interval in (0, MaxDelay].
	PDelay   float64
	MaxDelay time.Duration // default 2ms

	// PReorder holds a message until the next message on the same
	// (src, dst) pair is sent, then delivers the two in swapped order —
	// a deterministic inversion of the pair's FIFO order. A message drawn
	// for a reorder while the pair already holds one is that swap's second
	// half and goes at once. A held message with no successor is flushed
	// after ReorderFlush.
	PReorder     float64
	ReorderFlush time.Duration // default 25ms

	// PDuplicate delivers the message twice, the copy after a sampled
	// delay, exercising the receiver's idempotent duplicate drop.
	PDuplicate float64

	// PDrop loses the delivery permanently: only the runtime's
	// arrival-timeout re-request can heal it.
	PDrop float64

	// PDropRedeliver loses the delivery transiently: the transport itself
	// redelivers after RedeliverAfter, modelling a retransmit.
	PDropRedeliver float64
	RedeliverAfter time.Duration // default 20ms

	// CrashAtTask maps a node rank to the index (0-based, in dispatch
	// order) of the owned task just before which the node crashes: it
	// stops dispatching, poisons the cluster, and reports
	// ErrInjectedCrash. A rank whose index exceeds its owned-task count
	// never crashes.
	CrashAtTask map[int]int
}

// withDefaults fills the zero durations.
func (c Config) withDefaults() Config {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.ReorderFlush <= 0 {
		c.ReorderFlush = 25 * time.Millisecond
	}
	if c.RedeliverAfter <= 0 {
		c.RedeliverAfter = 20 * time.Millisecond
	}
	return c
}

func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PDelay", c.PDelay}, {"PReorder", c.PReorder},
		{"PDuplicate", c.PDuplicate}, {"PDrop", c.PDrop},
		{"PDropRedeliver", c.PDropRedeliver},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if s := c.PDrop + c.PDropRedeliver + c.PDuplicate; s > 1 {
		return fmt.Errorf("chaos: class probabilities sum to %v > 1", s)
	}
	if c.PDrop >= 1 {
		return fmt.Errorf("chaos: PDrop = %v; must stay below 1 or re-request retries can never heal", c.PDrop)
	}
	return nil
}

// ParseCrash decodes a "rank@task" crash directive for a p-node run into a
// Config.CrashAtTask map — the one spelling the CLI flag and the service's
// JobSpec share. Anything but exactly two integers around one '@' is
// rejected: the spec arrives over HTTP, and a trailing ",9@20" must not be
// dropped silently.
func ParseCrash(spec string, p int) (map[int]int, error) {
	rankText, taskText, _ := strings.Cut(spec, "@")
	rank, errRank := strconv.Atoi(rankText)
	task, errTask := strconv.Atoi(taskText)
	if errRank != nil || errTask != nil {
		return nil, fmt.Errorf("crash spec %q: want rank@task, e.g. 5@10", spec)
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("crash spec %q: rank outside 0..%d", spec, p-1)
	}
	if task < 0 {
		return nil, fmt.Errorf("crash spec %q: negative task index", spec)
	}
	return map[int]int{rank: task}, nil
}

// DeliveryFaults reports whether a plan built from c can disturb deliveries
// at all — as opposed to a crash-only plan, which never needs the network seam.
func (c Config) DeliveryFaults() bool {
	return c.PDelay > 0 || c.PReorder > 0 || c.PDuplicate > 0 || c.PDrop > 0 || c.PDropRedeliver > 0
}

// DefaultConfig is a moderate all-faults mix for the given seed: occasional
// delays, reorders and duplicates, a few permanent drops (healed by the
// runtime's re-requests) and transient drops (redelivered by the transport).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		PDelay:         0.20,
		PReorder:       0.10,
		PDuplicate:     0.05,
		PDrop:          0.02,
		PDropRedeliver: 0.05,
	}.withDefaults()
}

// identity names one message for the decision function: who sent what to
// whom, whether it is a control request, and the attempt number for repeats.
type identity struct {
	from, to int
	tag      cluster.Tag
	ctrl     bool
}

type pairKey struct{ from, to int }

// held is a message parked by a reorder fault, waiting for its swap partner.
type held struct {
	msg     cluster.Message
	deliver func(cluster.Message)
	timer   *time.Timer
}

// Plan is one run's fault injector; it implements cluster.Network. Safe for
// concurrent use by every sender goroutine.
type Plan struct {
	cfg Config

	mu       sync.Mutex
	attempts map[identity]int
	holds    map[pairKey]*held

	rec   *trace.Recorder
	epoch time.Time
}

// New validates cfg and builds a fresh plan for one run.
func New(cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Plan{
		cfg:      cfg,
		attempts: make(map[identity]int),
		holds:    make(map[pairKey]*held),
	}, nil
}

// Config returns the plan's (default-filled) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Bind attaches a trace recorder, the one log of the plan's verdicts: every
// injected fault is recorded as a trace.FaultEvent timed relative to epoch,
// next to the kernel and message timelines. Its what-string names everything
// the verdict was drawn for and drew — the tag (req-prefixed for a control
// request), the attempt and any sampled delay — so the recorder's
// timestamp-free Fingerprint is the plan's fault schedule. An unbound plan
// records nothing.
func (p *Plan) Bind(rec *trace.Recorder, epoch time.Time) {
	p.mu.Lock()
	p.rec = rec
	p.epoch = epoch
	p.mu.Unlock()
}

// CrashTask returns the owned-task index at which rank must crash, or -1.
func (p *Plan) CrashTask(rank int) int {
	n, ok := p.cfg.CrashAtTask[rank]
	if !ok {
		return -1
	}
	return n
}

// rngFor derives the per-identity random stream: a 64-bit FNV-1a hash of
// (seed, identity, attempt) seeds a private PRNG, so the draw sequence for
// one message is independent of every other message and of arrival order.
func (p *Plan) rngFor(id identity, attempt int) *rand.Rand {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(p.cfg.Seed))
	put(uint64(id.from)<<32 | uint64(uint32(id.to)))
	put(uint64(uint32(id.tag.I))<<32 | uint64(uint32(id.tag.J)))
	put(uint64(uint32(id.tag.V)))
	if id.ctrl {
		put(1)
	} else {
		put(0)
	}
	put(uint64(attempt))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// note records one verdict — kind, drawn for attempt of id, with its sampled
// delay if any — in the bound recorder.
func (p *Plan) note(kind string, id identity, attempt int, delay time.Duration) {
	p.mu.Lock()
	rec, epoch := p.rec, p.epoch
	p.mu.Unlock()
	if rec == nil {
		return
	}
	what := id.tag.String()
	if id.ctrl {
		what = "req" + what
	}
	what += " attempt " + strconv.Itoa(attempt)
	if delay > 0 {
		what += " delay " + delay.String()
	}
	rec.RecordFault(kind, id.from, id.to, what, time.Since(epoch).Seconds())
}

// Deliver implements cluster.Network: it draws the message's verdict from
// the seeded decision function and applies it. Draw order is fixed (class,
// then delay, then reorder) so verdicts are reproducible.
func (p *Plan) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	id := identity{from: msg.From, to: msg.To, tag: msg.Tag, ctrl: msg.Req}
	key := pairKey{from: msg.From, to: msg.To}

	p.mu.Lock()
	attempt := p.attempts[id]
	p.attempts[id] = attempt + 1
	// The swap partner of a pending reorder hold on this pair: released
	// after the current message, inverting the pair's FIFO order.
	var prev *held
	if h, ok := p.holds[key]; ok {
		delete(p.holds, key)
		h.timer.Stop()
		prev = h
	}
	p.mu.Unlock()

	r := p.rngFor(id, attempt)

	// Class draw: drop / transient drop / duplicate partition one uniform.
	u := r.Float64()
	switch {
	case u < p.cfg.PDrop:
		p.note("drop", id, attempt, 0)
		msg.Release()
		p.flush(prev)
		return
	case u < p.cfg.PDrop+p.cfg.PDropRedeliver:
		p.note("drop-redeliver", id, attempt, p.cfg.RedeliverAfter)
		time.AfterFunc(p.cfg.RedeliverAfter, func() { deliver(msg) })
		p.flush(prev)
		return
	case u < p.cfg.PDrop+p.cfg.PDropRedeliver+p.cfg.PDuplicate:
		d := p.sampleDelay(r)
		p.note("duplicate", id, attempt, d)
		dup := msg.Dup()
		time.AfterFunc(d, func() { deliver(dup) })
		// The original still goes through the delay/reorder draws below.
	}

	// Independent delay draw.
	if r.Float64() < p.cfg.PDelay {
		d := p.sampleDelay(r)
		p.note("delay", id, attempt, d)
		time.AfterFunc(d, func() { deliver(msg) })
		p.flush(prev)
		return
	}

	// Reorder draw, made and recorded for every message that gets this far,
	// so the verdict depends on the message alone, not on what the pair holds.
	// With no partner parked the message is parked to swap with the pair's
	// next send; with one parked it goes now, ahead of the partner.
	if r.Float64() < p.cfg.PReorder {
		p.note("reorder", id, attempt, 0)
		if prev == nil {
			h := &held{msg: msg, deliver: deliver}
			h.timer = time.AfterFunc(p.cfg.ReorderFlush, func() { p.flushHold(key, h) })
			p.mu.Lock()
			p.holds[key] = h
			p.mu.Unlock()
			return
		}
	}

	deliver(msg)
	p.flush(prev)
}

// sampleDelay draws a uniform delay in (0, MaxDelay].
func (p *Plan) sampleDelay(r *rand.Rand) time.Duration {
	return time.Duration(1 + r.Int63n(int64(p.cfg.MaxDelay)))
}

// flush releases a reorder hold's message immediately.
func (p *Plan) flush(h *held) {
	if h != nil {
		h.deliver(h.msg)
	}
}

// flushHold is the reorder safety valve: if no swap partner ever follows on
// the pair, the parked message is released after ReorderFlush instead of
// being lost.
func (p *Plan) flushHold(key pairKey, h *held) {
	p.mu.Lock()
	if p.holds[key] != h {
		p.mu.Unlock()
		return
	}
	delete(p.holds, key)
	p.mu.Unlock()
	h.deliver(h.msg)
}

// Flush releases every parked reorder hold immediately. The runtime calls it
// at shutdown so no payload share is stranded in a hold.
func (p *Plan) Flush() {
	p.mu.Lock()
	holds := make([]*held, 0, len(p.holds))
	for key, h := range p.holds {
		h.timer.Stop()
		holds = append(holds, h)
		delete(p.holds, key)
	}
	p.mu.Unlock()
	for _, h := range holds {
		h.deliver(h.msg)
	}
}
