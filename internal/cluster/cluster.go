// Package cluster provides the in-memory message-passing substrate that
// stands in for MPI: P node endpoints connected by a virtual network with
// asynchronous point-to-point tile messages and per-pair traffic counters.
//
// Like the paper's Chameleon setup, every communication is a point-to-point
// message carrying exactly one tile, so the message count equals the tile
// communication volume that Equations (1) and (2) predict — the counters here
// are what the integration tests compare against those formulas.
//
// # Logical messages vs wire hops
//
// The cluster keeps two views of every broadcast in one ledger (see Counter).
// The logical view (Messages, Bytes) counts one message from the publishing
// owner to each consumer node, exactly the paper's model, regardless of how
// the payload physically travels. The wire view (Hops, WireBytes, Forwards)
// counts the physical transmissions on each link. Under BroadcastFlat the two
// coincide. Under BroadcastTree the owner transmits only to its
// ⌈log₂(k+1)⌉ binomial-tree children and recipients relay the shared payload
// onward (Comm.Forward), so the logical counters — and with them every
// Equation (1)/(2) check — are untouched while the owner's NIC serialization
// shrinks from k sends to ⌈log₂(k+1)⌉. Conservation: each wire hop serves
// exactly one logical delivery, so Total(Hops) = Total(Messages), decomposed
// as root sends + forwards.
//
// # The network is reliable
//
// As MPI's point-to-point layer does, the cluster delivers every message
// exactly once. The one seam, Network, may delay and reorder deliveries —
// the tests plug a reordering network and a NIC model into it — but never
// lose or repeat one; the runtime treats a repeat as an internal error.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anybc/internal/tile"
)

// Tag identifies a published tile version: tile coordinates plus the write
// epoch V of the payload (0 for a tile's first writer, incremented by every
// later in-place update; see plan.Plan.Version). Only a tile's last version
// is ever sent — plan.Compile rejects a graph that reads an earlier one on
// another node — so in the factorizations V is the epoch of a tile's final
// factored state (after the panel kernel of iteration min(i, j)).
//
// Job is the tile-namespace epoch of one run (Cluster.OpenJob): every message
// of the run travels under it, so two concurrent runs' tiles can never
// collide even when both factor the same coordinates at the same versions.
// The field is a wire-protocol concern, not an application one — job-scoped
// endpoints (JobComm) stamp it on every send and strip it again on delivery,
// so engines keep working in plain (I, J, V) coordinates while the cluster
// routes each message to its job's private plane of mailboxes and counters.
type Tag struct {
	I, J int32
	V    int32
	Job  int32
}

// String renders the job-local tile version as "(i,j)vV", the label error
// messages use.
func (t Tag) String() string { return fmt.Sprintf("(%d,%d)v%d", t.I, t.J, t.V) }

// Message is one tile in flight. SentAt is the wall-clock instant the sender
// published it, so receivers can attribute transfer intervals in real-run
// traces; it is zero unless the sender's endpoint stamps (Comm.Timestamp).
//
// A broadcast delivers the same immutable payload tile to every destination:
// the sender's own tile, which it never writes again (see Broadcast). The
// message's Lease holds Payload and the recipient's share of it: receivers
// must treat Payload as read-only and call Release when done with it. A
// receiver that keeps the payload past the message — until its last reader
// has run — keeps the Lease alone, not the envelope.
//
// Under tree broadcast a non-empty Forward names the binomial subtree this
// recipient must relay the payload to: the recipient passes the message to
// Comm.Forward once and then consumes and Releases its own share as usual.
// Forward slices are read-only to recipients and shared between the hops of
// one broadcast.
type Message struct {
	From, To int
	Tag      Tag
	Lease
	SentAt  time.Time
	Forward []int // tree broadcast: destinations this recipient relays to
}

// sharedPayload reference-counts one payload in flight across its
// recipients.
type sharedPayload struct {
	cl   *Cluster
	refs atomic.Int32
}

// Lease is one recipient's hold on a payload: the tile and its share of the
// in-flight count.
type Lease struct {
	Payload *tile.Tile
	shared  *sharedPayload // nil for hand-built messages (tests)
}

// Release declares this recipient done with the payload and zeroes the lease.
// Once every recipient of the payload has released it, the payload stops
// counting as in flight (Cluster.PoolOutstanding).
// The payload must not be touched after Release; calling Release more than
// once per received message corrupts the refcount. No-op on hand-built
// messages.
func (l *Lease) Release() {
	if l.shared != nil && l.shared.refs.Add(-1) == 0 {
		l.shared.cl.inFlight.Add(-1)
	}
	*l = Lease{}
}

// mailbox is an unbounded FIFO queue; Send never blocks, which (together
// with the acyclicity of the task graph) makes the runtime deadlock-free.
// Because the queue is unbounded, backpressure is invisible unless measured:
// peak tracks the high-water mark of queued messages for Stats.MailboxPeak.
//
// A node with a Taker holds only what its taker declined: the taker takes
// the queue in with TryRecv and reads n and closed without the lock to learn
// whether anything is left to take in.
//
// Locking discipline: state changes happen under mu, and the condition
// variable is notified after unlock — the same order in put and close, so
// neither path wakes a waiter that must then contend for the still-held
// lock.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queue  []Message // queue[head:] is waiting; the consumed prefix is zeroed
	head   int
	peak   int
	n      atomic.Int32 // len(queue) - head, written under mu
	closed atomic.Bool  // written under mu
}

// init readies a zero mailbox and returns it.
func (m *mailbox) init() *mailbox {
	m.cond.L = &m.mu
	return m
}

// put enqueues msg and reports whether it was accepted; a closed mailbox
// (normal shutdown or abort) drops messages.
func (m *mailbox) put(msg Message) bool {
	m.mu.Lock()
	ok := !m.closed.Load()
	if ok {
		if len(m.queue) == cap(m.queue) && m.head > len(m.queue)/2 {
			// Full, and mostly consumed: slide the waiting messages down
			// rather than grow, so the array stays bounded by the backlog.
			n := copy(m.queue, m.queue[m.head:])
			clear(m.queue[n:])
			m.queue, m.head = m.queue[:n], 0
		}
		m.queue = append(m.queue, msg)
		n := len(m.queue) - m.head
		m.n.Store(int32(n))
		if n > m.peak {
			m.peak = n
		}
	}
	m.mu.Unlock()
	m.cond.Signal()
	return ok
}

// highWater returns the queue-length high-water mark seen so far.
func (m *mailbox) highWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// get blocks until a message is available or the mailbox is closed.
func (m *mailbox) get() (Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.queue) && !m.closed.Load() {
		m.cond.Wait()
	}
	return m.pop()
}

// take is get without the wait: ok is false while nothing is queued.
func (m *mailbox) take() (Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pop()
}

// pop dequeues the oldest message, if any; mu is held.
func (m *mailbox) pop() (Message, bool) {
	if m.head == len(m.queue) {
		return Message{}, false
	}
	msg := m.queue[m.head]
	// Avoid retaining payloads through the backing array.
	m.queue[m.head] = Message{}
	if m.head++; m.head == len(m.queue) {
		// Drained: rewind, so a mailbox that keeps up with its senders reuses
		// one small array for the whole run instead of re-growing it.
		m.queue, m.head = m.queue[:0], 0
	}
	m.n.Store(int32(len(m.queue) - m.head))
	return msg, true
}

// close closes the mailbox and reports whether this call did.
func (m *mailbox) close() bool {
	m.mu.Lock()
	first := !m.closed.Swap(true)
	m.mu.Unlock()
	m.cond.Broadcast()
	return first
}

// Taker takes a node's messages in on the goroutines that deliver them, so a
// node needs no goroutine of its own to receive: the runtime registers each
// node's engine (Comm.SetTaker). Both methods run on whatever goroutine
// sends, relays or closes, possibly under locks of that goroutine's own node,
// so neither may block on a lock another sender could hold.
type Taker interface {
	// Take is offered every message bound for the node before it is queued
	// and reports whether it took the message in; one it declines is queued
	// for Comm.TryRecv.
	Take(msg Message) bool
	// Wake is called after a declined message was queued and when the
	// mailbox closes: the taker takes in what it can now, or sees to it that
	// whoever keeps it from doing so does.
	Wake()
}

// Network is the cluster's one seam, a test seam. When a cluster is created
// with Options.Net set, every wire hop — the owner's and a relay's alike —
// is routed through Deliver on its way to the destination mailbox.
// The implementation must call deliver exactly once per message, at once or
// later, from any goroutine: it may delay and reorder deliveries, as a model
// of a real network's timing does, but never lose or repeat one. The traffic
// counters are incremented at send time, before Deliver runs, so delivery
// timing never disturbs the quantities Equations (1)/(2) predict.
type Network interface {
	Deliver(msg Message, deliver func(Message))
}

// BroadcastMode selects how Broadcast moves one published tile to its k
// consumer nodes.
type BroadcastMode int

const (
	// BroadcastFlat is the paper's pure point-to-point model: the owner
	// serializes k NIC sends, one per destination. The default.
	BroadcastFlat BroadcastMode = iota
	// BroadcastTree routes the payload down a binomial tree: the owner sends
	// to ⌈log₂(k+1)⌉ children and every recipient relays the shared payload
	// to its own subtree (Comm.Forward), pipelining the broadcast across the
	// recipients' NICs. The logical counters (Messages, Bytes) are
	// unchanged; only the wire hops (Hops, Forwards) re-route.
	BroadcastTree
)

func (m BroadcastMode) String() string {
	if m == BroadcastTree {
		return "tree"
	}
	return "flat"
}

// Options configures a cluster beyond its node count.
type Options struct {
	// Net is the network seam; nil delivers every hop at once.
	Net Network
	// Broadcast selects the Comm.Broadcast transport (default BroadcastFlat).
	Broadcast BroadcastMode
}

// Counter names one column of the traffic ledger. Each plane keeps a P×P
// (sender, destination) matrix per counter, from its first charge on; what a
// transmission adds to which of them is defined once, in ledgerOf.
type Counter uint8

const (
	Messages  Counter = iota // logical owner→consumer tile messages: what Equations (1)/(2) predict
	Bytes                    // payload bytes of Messages
	Hops                     // physical transmissions on the link
	WireBytes                // payload bytes of Hops (every hop carries one tile)
	Forwards                 // the Hops sent by tree relays
	numCounters
)

// byteValued marks the counters that grow by the payload's size rather than
// by one.
var byteValued = [numCounters]bool{Bytes: true, WireBytes: true}

// kind classifies a transmission for the ledger.
type kind uint8

const (
	kindData    kind = iota // Broadcast: a published tile version
	kindForward             // Forward: a tree relay of someone else's broadcast
)

// ledgerOf is the single definition of what each kind of transmission adds
// to the ledger: perDst counters grow at (sender, d) for every logical
// destination d, perHop counters at (sender, h) for every node h the sender
// physically transmits to. The two lists differ only under tree broadcast,
// where the owner's hops reach just its binomial children while the logical
// deliveries still name every consumer — and a relay's hops serve deliveries
// the owner was already charged for.
var ledgerOf = [...]struct{ perDst, perHop []Counter }{
	kindData:    {perDst: []Counter{Messages, Bytes}, perHop: []Counter{Hops, WireBytes}},
	kindForward: {perHop: []Counter{Hops, WireBytes, Forwards}},
}

// plane is one job's private slice of the cluster: its own mailboxes, their
// takers and its own traffic ledger. Every concurrent factorization job runs
// on its own plane over the shared node set, so jobs can never read each
// other's tiles, aborting one job poisons only its plane, and every per-job
// Report keeps the exact Equation (1)/(2) accounting a dedicated cluster
// would have produced. The ledger is allocated apart from the plane, so the
// Stats JobStats hands out keep the counters alive without the mailboxes and
// the takers (a run's engines) once the plane is dropped.
type plane struct {
	inboxes []*mailbox
	takers  []Taker // per rank; set before the job's first send
	ledger  *ledger
}

// ledger holds one P×P (src, dst) block per counter, allocated by the block's
// first charge: a flat run charges four of the five.
type ledger [numCounters]atomic.Pointer[[]atomic.Int64]

// block returns counter c's block, allocating it when grow is set and it does
// not exist yet; otherwise nil stands for a block of zeros.
func (l *ledger) block(c Counter, p int, grow bool) []atomic.Int64 {
	b := l[c].Load()
	if b == nil && grow {
		fresh := make([]atomic.Int64, p*p)
		if !l[c].CompareAndSwap(nil, &fresh) {
			return *l[c].Load() // a concurrent first charge won
		}
		b = &fresh
	}
	if b == nil {
		return nil
	}
	return *b
}

func newPlane(p int) *plane {
	pl := &plane{
		inboxes: make([]*mailbox, p),
		takers:  make([]Taker, p),
		ledger:  new(ledger),
	}
	boxes := make([]mailbox, p)
	for i := range pl.inboxes {
		pl.inboxes[i] = boxes[i].init()
	}
	return pl
}

// close closes every mailbox of the plane and wakes the takers of those it
// closed.
func (pl *plane) close() {
	for i, m := range pl.inboxes {
		if m.close() && pl.takers[i] != nil {
			pl.takers[i].Wake()
		}
	}
}

// Cluster is a set of P virtual nodes with an all-to-all network. A cluster
// hosts one or more tag-namespace planes: single-job callers use the default
// plane (job 0) through Comm and never see the distinction, while the
// multi-tenant service opens one plane per factorization job through JobComm
// and multiplexes many concurrent DAGs over the same P nodes and network.
type Cluster struct {
	p         int
	planes    sync.Map     // int32 job id -> *plane, created lazily by JobComm
	lastJob   atomic.Int32 // the namespace OpenJob handed out last
	closed    atomic.Bool  // set by Close; late-created planes are born closed
	net       Network      // nil delivers every hop at once
	broadcast BroadcastMode
	inFlight  atomic.Int64 // payloads sent and not yet released by every recipient
}

// New creates a cluster of p nodes with no network seam and flat broadcast.
func New(p int) *Cluster {
	return NewWithOptions(p, Options{})
}

// NewWithOptions creates a cluster of p nodes with the given network seam and
// broadcast transport.
func NewWithOptions(p int, opt Options) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("cluster: invalid node count %d", p))
	}
	return &Cluster{p: p, net: opt.Net, broadcast: opt.Broadcast}
}

// Broadcast returns the cluster's broadcast transport mode.
func (c *Cluster) Broadcast() BroadcastMode { return c.broadcast }

// plane returns job's plane, creating it on first use. A plane created after
// (or concurrently with) Close is closed immediately — plane.close is
// idempotent — so a receiver racing the cluster's teardown can never block
// on a mailbox no one will ever close.
func (c *Cluster) plane(job int32) *plane {
	if pl, ok := c.planes.Load(job); ok {
		return pl.(*plane)
	}
	pl, _ := c.planes.LoadOrStore(job, newPlane(c.p))
	if c.closed.Load() {
		pl.(*plane).close()
	}
	return pl.(*plane)
}

// planeIfExists returns job's plane without creating one: deliveries to a
// job that was never opened — or was dropped after finishing — must not
// resurrect it.
func (c *Cluster) planeIfExists(job int32) *plane {
	if pl, ok := c.planes.Load(job); ok {
		return pl.(*plane)
	}
	return nil
}

// deliver hands msg, back from the network seam, to the plane of its tag's
// job epoch, and releases its payload share when that plane is gone.
func (c *Cluster) deliver(msg Message) {
	if pl := c.planeIfExists(msg.Tag.Job); pl != nil {
		pl.deliver(msg)
	} else {
		msg.Release()
	}
}

// deliver strips msg's job epoch and offers it to rank msg.To's taker, else
// queues it in the rank's mailbox, or releases its payload share when that
// mailbox already closed (shutdown, abort, a dropped job).
func (pl *plane) deliver(msg Message) {
	msg.Tag.Job = 0
	t := pl.takers[msg.To]
	switch {
	case t != nil && t.Take(msg):
	case !pl.inboxes[msg.To].put(msg):
		msg.Release()
	case t != nil:
		t.Wake()
	}
}

// Nodes returns P.
func (c *Cluster) Nodes() int { return c.p }

// Comm returns the endpoint of node rank on the default plane (job 0) — the
// single-job view every pre-service caller uses.
func (c *Cluster) Comm(rank int) *Comm {
	return c.JobComm(0, rank)
}

// JobComm returns the endpoint of node rank scoped to the given job's tag
// namespace: every send stamps the job epoch into the wire tag, every
// receive strips it again, and Recv sees only this job's messages. Opening
// the first endpoint of a job creates its plane.
func (c *Cluster) JobComm(job int32, rank int) *Comm {
	if rank < 0 || rank >= c.p {
		panic(fmt.Sprintf("cluster: invalid rank %d", rank))
	}
	return &Comm{cluster: c, rank: rank, job: job, pl: c.plane(job)}
}

// Close shuts every mailbox of every plane down, releasing blocked
// receivers. Used at cluster teardown; to end a single job on a shared
// cluster, use CloseJob.
func (c *Cluster) Close() {
	c.closed.Store(true)
	c.planes.Range(func(_, pl any) bool {
		pl.(*plane).close()
		return true
	})
}

// CloseJob shuts down one job's plane: its mailboxes close, so that job's
// blocked receivers wake up while every other tenant keeps running
// untouched. Idempotent; a job that was never opened is a no-op. The plane's
// counters stay with JobStats' caller after DropJob.
func (c *Cluster) CloseJob(job int32) {
	if pl := c.planeIfExists(job); pl != nil {
		pl.close()
	}
}

// OpenJob hands out a fresh tile namespace, one no earlier call returned and
// not the default plane's, and creates its plane. One run uses it and drops
// it (DropJob) once its Stats are taken, so two runs never share a plane.
func (c *Cluster) OpenJob() int32 {
	job := c.lastJob.Add(1)
	c.plane(job)
	return job
}

// DropJob removes a closed job's plane entirely, freeing its mailboxes and
// takers, even while JobStats' caller holds the job's counters, and — unless
// JobStats handed them over — the counters too; late deliveries addressed
// to a dropped job release their payload shares. Call only after the job's
// Stats have been taken: a long-lived cluster whose finished jobs were never
// dropped would leak one counter block per job.
func (c *Cluster) DropJob(job int32) {
	c.CloseJob(job)
	c.planes.Delete(job)
}

// PoolOutstanding returns the number of payloads in flight, each until its
// last recipient released it. After every job on the cluster has finished or
// been cancelled and its mailboxes drained, the balance returns to zero; a
// persistent residue is a leaked payload share.
func (c *Cluster) PoolOutstanding() int64 {
	return c.inFlight.Load()
}

// Comm is one node's endpoint: its rank, its job's tag namespace, and its
// view of the network.
type Comm struct {
	cluster *Cluster
	rank    int
	job     int32
	pl      *plane
	stamp   bool // sends carry SentAt (Timestamp)
}

// SetTaker registers t as this node's taker on the endpoint's job plane (see
// Taker). Call it before any message of the job is sent: from then on every
// message bound for the node is offered to t first.
func (c *Comm) SetTaker(t Taker) { c.pl.takers[c.rank] = t }

// Timestamp makes every later send of this endpoint stamp Message.SentAt, for
// a receiver that traces transfer intervals; an unstamped message reads the
// clock not at all.
func (c *Comm) Timestamp() { c.stamp = true }

// Broadcast publishes one tile version to every listed destination as one
// payload all recipients share: the caller's own tile, lent to every hop,
// and relay, so the caller must never write it again — kernel inputs are
// read-only, and the plan sends only a tile's last version. The payload
// counts as in flight (PoolOutstanding) until its last Release. The wire hops
// follow the cluster's BroadcastMode — flat fan-out from the owner, or a
// binomial tree whose recipients relay the shared payload onward via
// Comm.Forward — while the logical counters name every destination either
// way, so the communication-volume semantics the integration tests check do
// not depend on the mode. Destinations must be distinct and exclude the
// sender: the runtime must short-circuit local data.
func (c *Comm) Broadcast(dsts []int, tag Tag, payload *tile.Tile) {
	c.transmit(kindData, dsts, Message{Tag: tag}, payload)
}

// SendAll broadcasts a clone of payload: the form for a caller that may go on
// to write its tile, such as bench/'s transport probe.
func (c *Comm) SendAll(dsts []int, tag Tag, payload *tile.Tile) {
	c.Broadcast(dsts, tag, payload.Clone())
}

// transmit is the cluster's one send path: every tile and relay hop leaves a
// node through it. It checks the whole
// destination list before a payload is counted or a hop dispatched — a panic
// must leave no payload in flight with a refcount the receivers can never
// drain, and no partially delivered broadcast — then stamps the sender's rank
// and job epoch (deliver strips it again), charges the ledger exactly what
// ledgerOf lists for the kind, and hands every hop to the network seam.
//
// msg carries the tag. A non-nil payload is the caller's tile, lent to every
// hop. A relay passes nil and msg already holds the in-flight broadcast's
// shared payload, of which each hop takes one more share while the caller
// keeps its own.
func (c *Comm) transmit(k kind, dsts []int, msg Message, payload *tile.Tile) {
	cl := c.cluster
	if len(dsts) == 0 {
		return
	}
	for i, dst := range dsts {
		if dst == c.rank {
			panic("cluster: self-send; local data must not go through the network")
		}
		if dst < 0 || dst >= cl.p {
			panic(fmt.Sprintf("cluster: destination %d outside the %d-node cluster", dst, cl.p))
		}
		for _, prev := range dsts[:i] {
			if prev == dst {
				panic(fmt.Sprintf("cluster: duplicate destination %d in broadcast; destinations must be distinct", dst))
			}
		}
	}
	hops, subtrees := dsts, [][]int(nil)
	switch {
	case k == kindForward:
		hops, subtrees = TreeFanout(dsts)
	case k == kindData && cl.broadcast == BroadcastTree && len(dsts) > 1:
		// The Forward subtrees ride inside in-flight messages long after this
		// call returns, so they must not alias the caller's dsts slice —
		// publishers reuse it as scratch. One private copy serves the whole
		// tree: TreeFanout (here and in every downstream Forward) only ever
		// hands out disjoint subranges of it.
		hops, subtrees = TreeFanout(append([]int(nil), dsts...))
	}
	if payload != nil {
		cl.inFlight.Add(1)
		msg.Payload, msg.shared = payload, &sharedPayload{cl: cl}
	}
	if msg.shared != nil {
		msg.shared.refs.Add(int32(len(hops)))
	}
	size := int64(msg.Payload.Bytes())
	msg.From, msg.Tag.Job = c.rank, c.job
	if c.stamp {
		msg.SentAt = time.Now()
	}
	for _, dst := range dsts {
		c.charge(ledgerOf[k].perDst, dst, size)
	}
	for i, hop := range hops {
		c.charge(ledgerOf[k].perHop, hop, size)
		msg.To = hop
		if subtrees != nil {
			msg.Forward = subtrees[i]
		}
		if cl.net != nil {
			cl.net.Deliver(msg, cl.deliver)
		} else {
			c.pl.deliver(msg)
		}
	}
}

// charge is the only place a traffic counter is incremented: each listed
// counter's (this node, dst) entry grows by one, or by size when it is
// byte-valued.
func (c *Comm) charge(counters []Counter, dst int, size int64) {
	p := c.cluster.p
	for _, ctr := range counters {
		n := int64(1)
		if byteValued[ctr] {
			n = size
		}
		c.pl.ledger.block(ctr, p, true)[c.rank*p+dst].Add(n)
	}
}

// Forward relays a tree-broadcast message onward: the caller received msg
// with a non-empty Forward list and passes it here once. The subtree is split binomially again
// — this node plays root for its Forward list — so the whole broadcast
// completes in ⌈log₂(k+1)⌉ serial hops on every participant's NIC. The
// caller still owns its payload share and releases it through the usual
// Message.Release path.
func (c *Comm) Forward(msg Message) {
	c.transmit(kindForward, msg.Forward, msg, nil)
}

// Abort poisons this endpoint's job: every mailbox of the job's plane
// closes, so all the job's blocked receivers on every node wake up with
// ok == false — while other jobs sharing the cluster keep running untouched.
// The runtime uses this to propagate a kernel failure — peers waiting for
// tiles that will never be produced must not hang. Idempotent; on a
// single-job cluster it is equivalent to Cluster.Close.
func (c *Comm) Abort() {
	c.pl.close()
}

// Recv blocks until a message of this endpoint's job arrives; ok is false
// once the job's plane is closed and the mailbox drained. The job epoch is
// stripped from the delivered tag: receivers work in the job-local (I, J, V)
// namespace, and only the wire carries the job id.
func (c *Comm) Recv() (Message, bool) {
	return c.pl.inboxes[c.rank].get()
}

// TryRecv is Recv without the wait, for a taker: ok is false while nothing
// is queued.
func (c *Comm) TryRecv() (Message, bool) {
	return c.pl.inboxes[c.rank].take()
}

// Queued returns how many messages wait in this node's mailbox, without
// taking its lock.
func (c *Comm) Queued() int { return int(c.pl.inboxes[c.rank].n.Load()) }

// Closed reports, without taking the mailbox's lock, whether this node's
// mailbox is closed: its job ended or was aborted, and nothing is queued for
// it any more.
func (c *Comm) Closed() bool { return c.pl.inboxes[c.rank].closed.Load() }

// Stats is one plane's traffic ledger (see Counter for the columns and the
// package comment for how they relate) plus MailboxPeak, each node's inbound
// queue high-water mark — the backpressure an unbounded mailbox would
// otherwise hide.
type Stats struct {
	P           int
	MailboxPeak []int
	table       *ledger // the plane's ledger itself, not a copy; not the plane
}

// JobStats hands over the traffic ledger of one job's plane: the exact
// accounting a dedicated cluster would have produced for that job, unpolluted
// by its co-tenants. The counters are the plane's own, not a copy, so what
// the job's endpoints send after the call still shows in them: read them once
// nothing of the job sends any more, as the runtime does once its nodes have
// taken in what the closed plane's mailboxes held. A job that was never
// opened returns zeroed counters.
func (c *Cluster) JobStats(job int32) Stats {
	pl := c.planeIfExists(job)
	if pl == nil {
		pl = newPlane(c.p)
	}
	s := Stats{P: c.p, MailboxPeak: make([]int, c.p), table: pl.ledger}
	for i, m := range pl.inboxes {
		s.MailboxPeak[i] = m.highWater()
	}
	return s
}

// matrix returns counter c's P×P block of the table, row-major [src][dst];
// nil when nothing charged the counter yet, which reads as zeros.
func (s Stats) matrix(c Counter) []atomic.Int64 {
	return s.table.block(c, s.P, false)
}

// At returns counter c on the (src, dst) link.
func (s Stats) At(c Counter, src, dst int) int64 {
	if m := s.matrix(c); m != nil {
		return m[src*s.P+dst].Load()
	}
	return 0
}

// Total returns counter c summed over every link.
func (s Stats) Total(c Counter) int64 {
	var t int64
	m := s.matrix(c)
	for i := range m {
		t += m[i].Load()
	}
	return t
}

// BySrc returns counter c summed per sending node: what each node's outgoing
// NIC carried (Hops, WireBytes — the quantity tree broadcast shrinks at the
// roots), published (Messages) or relayed (Forwards).
func (s Stats) BySrc(c Counter) []int64 {
	out := make([]int64, s.P)
	m := s.matrix(c)
	for i := range m {
		out[i/s.P] += m[i].Load()
	}
	return out
}

// Shorthands kept for the callers that predate Total/BySrc: commands,
// examples, the service and the benchmark.
func (s Stats) TotalMessages() int64  { return s.Total(Messages) }
func (s Stats) TotalBytes() int64     { return s.Total(Bytes) }
func (s Stats) TotalWireBytes() int64 { return s.Total(WireBytes) }
func (s Stats) TotalHops() int64      { return s.Total(Hops) }
func (s Stats) TotalForwards() int64  { return s.Total(Forwards) }
