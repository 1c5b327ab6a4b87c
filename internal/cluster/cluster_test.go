package cluster

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"anybc/internal/tile"
)

func payload(v float64) *tile.Tile {
	t := tile.New(2, 2)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

func TestSendRecv(t *testing.T) {
	c := New(2)
	defer c.Close()
	c0, c1 := c.Comm(0), c.Comm(1)
	c0.SendAll([]int{1}, Tag{I: 3, J: 4}, payload(7))
	msg, ok := c1.Recv()
	if !ok {
		t.Fatal("Recv failed")
	}
	if msg.From != 0 || msg.To != 1 || msg.Tag != (Tag{I: 3, J: 4}) {
		t.Fatalf("message metadata wrong: %+v", msg)
	}
	if msg.Payload.At(0, 0) != 7 {
		t.Fatal("payload content wrong")
	}
}

func TestSendClonesPayload(t *testing.T) {
	c := New(2)
	defer c.Close()
	p := payload(1)
	c.Comm(0).SendAll([]int{1}, Tag{}, p)
	p.Set(0, 0, 99) // mutate after send
	msg, _ := c.Comm(1).Recv()
	if msg.Payload.At(0, 0) != 1 {
		t.Fatal("payload not cloned at send time")
	}
}

func TestFIFOOrder(t *testing.T) {
	c := New(2)
	defer c.Close()
	for i := 0; i < 10; i++ {
		c.Comm(0).SendAll([]int{1}, Tag{I: int32(i)}, payload(float64(i)))
	}
	for i := 0; i < 10; i++ {
		msg, ok := c.Comm(1).Recv()
		if !ok || msg.Tag.I != int32(i) {
			t.Fatalf("message %d out of order: %+v ok=%v", i, msg.Tag, ok)
		}
	}
}

func TestCounters(t *testing.T) {
	c := New(3)
	defer c.Close()
	c.Comm(0).SendAll([]int{1}, Tag{}, payload(0))
	c.Comm(0).SendAll([]int{1}, Tag{}, payload(0))
	c.Comm(2).SendAll([]int{0}, Tag{}, payload(0))
	s := c.JobStats(0)
	if s.At(Messages, 0, 1) != 2 || s.At(Messages, 2, 0) != 1 || s.At(Messages, 1, 0) != 0 {
		t.Fatalf("message counters wrong: %+v", s.matrix(Messages))
	}
	if s.TotalMessages() != 3 {
		t.Fatalf("TotalMessages = %d, want 3", s.TotalMessages())
	}
	if s.TotalBytes() != 3*32 {
		t.Fatalf("TotalBytes = %d, want 96", s.TotalBytes())
	}
	sent := s.BySrc(Messages)
	if sent[0] != 2 || sent[1] != 0 || sent[2] != 1 {
		t.Fatalf("BySrc(Messages) = %v", sent)
	}
}

// collectedTaker takes in and releases every message, and closes collected
// when the collector finalizes it.
type collectedTaker struct{ collected chan struct{} }

func (k *collectedTaker) Take(msg Message) bool { msg.Release(); return true }
func (k *collectedTaker) Wake()                 {}

// TestHeldStatsDoNotPinThePlane: the Stats JobStats hands out hold the job's
// counters, not its plane. Once the job is dropped, its taker (in a run, a
// node's engine and its per-run tables) is collected while the Stats are still
// held, and they still read every send, the one made after the call too.
func TestHeldStatsDoNotPinThePlane(t *testing.T) {
	c := New(2)
	defer c.Close()
	collected := make(chan struct{})
	s := sendOnDroppedJob(c, collected)
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
		default:
			if time.Now().After(deadline) {
				t.Fatal("the taker of a dropped job is still reachable while its Stats are held")
			}
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	if s.At(Messages, 0, 1) != 2 || s.TotalMessages() != 2 || s.TotalBytes() != 2*32 {
		t.Fatalf("held Stats read %d messages, %d bytes; want 2 and 64", s.TotalMessages(), s.TotalBytes())
	}
	if n := c.PoolOutstanding(); n != 0 {
		t.Fatalf("%d payloads still in flight", n)
	}
}

// sendOnDroppedJob opens a job whose node 1 has a collectedTaker, sends node
// 1 a tile before and after taking the job's Stats, drops the job and returns
// the Stats: nothing else of the job stays reachable from the caller.
func sendOnDroppedJob(c *Cluster, collected chan struct{}) Stats {
	job := c.OpenJob()
	k := &collectedTaker{collected: collected}
	runtime.SetFinalizer(k, func(k *collectedTaker) { close(k.collected) })
	c.JobComm(job, 1).SetTaker(k)
	from := c.JobComm(job, 0)
	from.SendAll([]int{1}, Tag{}, payload(1))
	s := c.JobStats(job)
	from.SendAll([]int{1}, Tag{}, payload(2))
	c.DropJob(job)
	return s
}

func TestCloseReleasesReceivers(t *testing.T) {
	c := New(1)
	done := make(chan bool)
	go func() {
		_, ok := c.Comm(0).Recv()
		done <- ok
	}()
	c.Close()
	if ok := <-done; ok {
		t.Fatal("Recv returned ok=true after Close on empty mailbox")
	}
}

func TestDrainAfterClose(t *testing.T) {
	// Messages already enqueued are lost after close only if unread before;
	// here we enqueue then close then read: the mailbox keeps queued data.
	c := New(2)
	c.Comm(0).SendAll([]int{1}, Tag{I: 1}, payload(5))
	c.Close()
	msg, ok := c.Comm(1).Recv()
	if !ok || msg.Tag.I != 1 {
		t.Fatalf("queued message lost after close: ok=%v", ok)
	}
	if _, ok := c.Comm(1).Recv(); ok {
		t.Fatal("Recv on drained closed mailbox returned ok")
	}
}

func TestConcurrentSenders(t *testing.T) {
	c := New(4)
	defer c.Close()
	const per = 200
	var wg sync.WaitGroup
	for src := 1; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			comm := c.Comm(src)
			for i := 0; i < per; i++ {
				comm.SendAll([]int{0}, Tag{I: int32(src), J: int32(i)}, payload(0))
			}
		}(src)
	}
	received := 0
	recvDone := make(chan struct{})
	go func() {
		comm := c.Comm(0)
		for received < 3*per {
			if _, ok := comm.Recv(); !ok {
				break
			}
			received++
		}
		close(recvDone)
	}()
	wg.Wait()
	<-recvDone
	if received != 3*per {
		t.Fatalf("received %d of %d messages", received, 3*per)
	}
	if got := c.JobStats(0).TotalMessages(); got != 3*per {
		t.Fatalf("counter %d, want %d", got, 3*per)
	}
}

func TestPanics(t *testing.T) {
	c := New(2)
	defer c.Close()
	for _, f := range []func(){
		func() { New(0) },
		func() { c.Comm(5) },
		func() { c.Comm(0).SendAll([]int{0}, Tag{}, payload(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestLedger pins the whole ledger for every kind of transmission: the exact
// delta of every counter on every link, zeros included — so a relay that
// started counting logical messages or a request that started counting hops
// fails here — and that traffic on one job's plane never shows in another's.
func TestLedger(t *testing.T) {
	const (
		p          = 4
		jobA, jobB = 1, 2
	)
	sz := int64(payload(0).Bytes())
	type link struct{ src, dst int }
	type delta map[Counter]map[link]int64
	on := func(v int64, links ...link) map[link]int64 {
		m := map[link]int64{}
		for _, l := range links {
			m[l] = v
		}
		return m
	}
	all := []link{{0, 1}, {0, 2}, {0, 3}}
	cases := []struct {
		name  string
		mode  BroadcastMode
		setup func(c *Cluster) Message // traffic excluded from the delta; its result feeds act
		act   func(c *Cluster, m Message)
		want  delta
		lands int // messages the action puts into job A's mailboxes
	}{
		{"SendAll flat", BroadcastFlat, nil,
			func(c *Cluster, _ Message) { c.JobComm(jobA, 0).SendAll([]int{1, 2, 3}, Tag{I: 1}, payload(1)) },
			delta{Messages: on(1, all...), Bytes: on(sz, all...), Hops: on(1, all...), WireBytes: on(sz, all...)}, 3},
		{"SendAll tree", BroadcastTree, nil,
			func(c *Cluster, _ Message) { c.JobComm(jobA, 0).SendAll([]int{1, 2, 3}, Tag{I: 1}, payload(1)) },
			// k=3: the owner transmits to its binomial children 1 and 2 only.
			delta{Messages: on(1, all...), Bytes: on(sz, all...), Hops: on(1, all[:2]...), WireBytes: on(sz, all[:2]...)}, 2},
		{"Forward", BroadcastTree,
			func(c *Cluster) Message {
				c.JobComm(jobA, 0).SendAll([]int{1, 2, 3}, Tag{I: 1}, payload(1))
				m, _ := c.JobComm(jobA, 2).Recv() // carries the subtree {3}
				return m
			},
			func(c *Cluster, m Message) { c.JobComm(jobA, 2).Forward(m); m.Release() },
			delta{Hops: on(1, link{2, 3}), WireBytes: on(sz, link{2, 3}), Forwards: on(1, link{2, 3})}, 1},
		{"SendAll tree one destination", BroadcastTree, nil,
			// One consumer: the tree is the owner's one hop, and nothing relays.
			func(c *Cluster, _ Message) { c.JobComm(jobA, 1).SendAll([]int{0}, Tag{I: 1}, payload(1)) },
			delta{Messages: on(1, link{1, 0}), Bytes: on(sz, link{1, 0}), Hops: on(1, link{1, 0}),
				WireBytes: on(sz, link{1, 0})}, 1},
	}
	queued := func(c *Cluster) int {
		n := 0
		for _, m := range c.plane(jobA).inboxes {
			m.mu.Lock()
			n += len(m.queue) - m.head
			m.mu.Unlock()
		}
		return n
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewWithOptions(p, Options{Broadcast: tc.mode})
			defer c.Close()
			c.JobComm(jobB, 0) // open the co-tenant's plane
			var m Message
			if tc.setup != nil {
				m = tc.setup(c)
			}
			before, q0 := snapshot(c.JobStats(jobA)), queued(c)
			tc.act(c, m)
			after := c.JobStats(jobA)
			if got := queued(c) - q0; got != tc.lands {
				t.Errorf("%d messages landed, want %d", got, tc.lands)
			}
			for ctr := Counter(0); ctr < numCounters; ctr++ {
				for src := 0; src < p; src++ {
					for dst := 0; dst < p; dst++ {
						got := after.At(ctr, src, dst) - before.At(ctr, src, dst)
						if want := tc.want[ctr][link{src, dst}]; got != want {
							t.Errorf("counter %d on %d→%d grew by %d, want %d", ctr, src, dst, got, want)
						}
					}
				}
				if other := c.JobStats(jobB).Total(ctr); other != 0 {
					t.Errorf("counter %d leaked %d into the co-tenant's plane", ctr, other)
				}
			}
		})
	}
}

// snapshot copies the counters JobStats hands over, which keep counting.
func snapshot(s Stats) Stats {
	table := new(ledger)
	for c := range table {
		if from := s.matrix(Counter(c)); from != nil {
			to := table.block(Counter(c), s.P, true)
			for i := range from {
				to[i].Store(from[i].Load())
			}
		}
	}
	s.table = table
	return s
}

// TestMailboxReusesItsArray: a mailbox whose receiver keeps up rewinds to the
// start of its array whenever it drains, so put never re-grows it (get used to
// re-slice the front away for good, and append reallocated over and over:
// growslice under put was 2 % of an overhead-bound factorization's CPU); and
// one that never drains slides its backlog down instead of growing without
// bound.
func TestMailboxReusesItsArray(t *testing.T) {
	m := new(mailbox).init()
	round := func(burst int) {
		for k := 0; k < burst; k++ {
			m.put(Message{From: 1, Tag: Tag{I: int32(k)}})
		}
		for k := 0; k < burst; k++ {
			if msg, ok := m.get(); !ok || msg.Tag.I != int32(k) {
				t.Fatalf("get %d of a burst of %d = %v, %v", k, burst, msg.Tag, ok)
			}
		}
	}
	round(8) // warm: the array now holds a burst
	if allocs := testing.AllocsPerRun(100, func() { round(1); round(8); round(3) }); allocs != 0 {
		t.Errorf("put/get rounds on a warm mailbox allocate %.0f objects, want 0", allocs)
	}

	// A standing backlog of 5 under a long stream: FIFO order holds across the
	// slides, and the array stays a small multiple of the backlog.
	const backlog, stream = 5, 10000
	next := int32(0)
	for k := 0; k < stream; k++ {
		m.put(Message{From: 1, Tag: Tag{V: int32(k)}})
		if k >= backlog {
			if msg, _ := m.get(); msg.Tag.V != next {
				t.Fatalf("get = version %d, want %d", msg.Tag.V, next)
			}
			next++
		}
	}
	if c := cap(m.queue); c > 8*backlog {
		t.Errorf("array grew to %d slots under a standing backlog of %d", c, backlog)
	}
	if m.highWater() != 8 {
		t.Errorf("high-water mark %d, want the warm-up burst's 8", m.highWater())
	}
}
