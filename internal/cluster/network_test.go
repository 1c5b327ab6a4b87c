package cluster

import (
	"sync"
	"testing"
)

func TestMailboxHighWater(t *testing.T) {
	c := New(2)
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Comm(0).SendAll([]int{1}, Tag{I: int32(i)}, payload(0))
	}
	// Drain two, then refill: the peak must remember the worst instant.
	c.Comm(1).Recv()
	c.Comm(1).Recv()
	c.Comm(0).SendAll([]int{1}, Tag{I: 5}, payload(0))
	s := c.JobStats(0)
	if s.MailboxPeak[1] != 5 {
		t.Fatalf("MailboxPeak[1] = %d, want 5", s.MailboxPeak[1])
	}
	if s.MailboxPeak[0] != 0 {
		t.Fatalf("MailboxPeak[0] = %d, want 0 (never received)", s.MailboxPeak[0])
	}
}

func TestRequestResendCounters(t *testing.T) {
	c := New(2)
	defer c.Close()
	// Node 1 asks node 0 to re-send (3,4)v1; node 0 answers.
	c.Comm(1).Request(0, Tag{I: 3, J: 4, V: 1})
	msg, ok := c.Comm(0).Recv()
	if !ok {
		t.Fatal("request not delivered")
	}
	if !msg.Req || msg.Payload != nil || msg.Tag != (Tag{I: 3, J: 4, V: 1}) {
		t.Fatalf("request message malformed: %+v", msg)
	}
	msg.Release() // must be a no-op on a payload-free control message

	c.Comm(0).Resend(1, msg.Tag, payload(9))
	ans, ok := c.Comm(1).Recv()
	if !ok {
		t.Fatal("resend not delivered")
	}
	if ans.Req || ans.Tag != msg.Tag || ans.Payload.At(0, 0) != 9 {
		t.Fatalf("resend message malformed: %+v", ans)
	}
	ans.Release()

	s := c.JobStats(0)
	if s.At(Requests, 1, 0) != 1 || s.Total(Requests) != 1 {
		t.Fatalf("request counters wrong: %+v", s.matrix(Requests))
	}
	// The redelivery counts as a real message AND as a redelivery, so
	// Messages − Redeliveries recovers the fault-free volume.
	if s.At(Messages, 0, 1) != 1 || s.At(Redeliveries, 0, 1) != 1 || s.Total(Redeliveries) != 1 {
		t.Fatalf("redelivery counters wrong: msgs=%+v redeliveries=%+v", s.matrix(Messages), s.matrix(Redeliveries))
	}
	if s.At(Bytes, 0, 1) != int64(payload(9).Bytes()) {
		t.Fatalf("resend bytes not counted: %+v", s.matrix(Bytes))
	}
}

func TestRequestPanicsOnSelf(t *testing.T) {
	c := New(2)
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-request")
		}
	}()
	c.Comm(0).Request(0, Tag{})
}

// recordingNet is a test Network that counts deliveries and can drop or
// duplicate them.
type recordingNet struct {
	mu       sync.Mutex
	seen     int
	drop     bool
	dup      bool
	released func()
}

func (n *recordingNet) Deliver(msg Message, deliver func(Message)) {
	n.mu.Lock()
	n.seen++
	drop, dup := n.drop, n.dup
	n.mu.Unlock()
	if drop {
		msg.Release()
		if n.released != nil {
			n.released()
		}
		return
	}
	if dup {
		deliver(msg.Dup())
	}
	deliver(msg)
}

func TestNetworkSeamSeesEveryDelivery(t *testing.T) {
	net := &recordingNet{}
	c := NewWithOptions(2, Options{Net: net})
	defer c.Close()
	c.Comm(0).SendAll([]int{1}, Tag{}, payload(1))
	c.Comm(1).Request(0, Tag{})
	c.Comm(0).Resend(1, Tag{}, payload(2))
	if net.seen != 3 {
		t.Fatalf("network saw %d deliveries, want 3 (send, request, resend)", net.seen)
	}
}

func TestNetworkDropCountsButNeverArrives(t *testing.T) {
	released := make(chan struct{}, 1)
	net := &recordingNet{drop: true, released: func() { released <- struct{}{} }}
	c := NewWithOptions(2, Options{Net: net})
	c.Comm(0).SendAll([]int{1}, Tag{I: 1}, payload(3))
	// Counters are incremented at send time, before the network decides:
	// injected faults never disturb the Eq (1)/(2) quantities.
	if got := c.JobStats(0).TotalMessages(); got != 1 {
		t.Fatalf("dropped message not counted at send time: %d", got)
	}
	<-released // the drop must Release its payload share
	c.Close()
	if _, ok := c.Comm(1).Recv(); ok {
		t.Fatal("dropped message was delivered")
	}
}

func TestNetworkDuplicateSharesRefcount(t *testing.T) {
	net := &recordingNet{dup: true}
	c := NewWithOptions(2, Options{Net: net})
	defer c.Close()
	c.Comm(0).SendAll([]int{1}, Tag{I: 7}, payload(4))
	m1, ok1 := c.Comm(1).Recv()
	m2, ok2 := c.Comm(1).Recv()
	if !ok1 || !ok2 {
		t.Fatal("expected two deliveries of the duplicated message")
	}
	if m1.Tag != m2.Tag || m1.Payload.At(0, 0) != 4 || m2.Payload.At(0, 0) != 4 {
		t.Fatalf("duplicate differs from original: %+v vs %+v", m1.Tag, m2.Tag)
	}
	// Releasing both must be safe: Dup bumped the refcount.
	m1.Release()
	m2.Release()
	// Only one logical message was sent.
	if got := c.JobStats(0).TotalMessages(); got != 1 {
		t.Fatalf("duplicate inflated the counter: %d", got)
	}
}
