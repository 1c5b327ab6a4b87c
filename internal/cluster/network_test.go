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

// heldNet is a test Network that holds every hop until its test delivers
// them.
type heldNet struct {
	mu   sync.Mutex
	held []func()
}

func (n *heldNet) Deliver(msg Message, deliver func(Message)) {
	n.mu.Lock()
	n.held = append(n.held, func() { deliver(msg) })
	n.mu.Unlock()
}

// TestNetworkSeamSeesEveryDelivery: every wire hop, of a fan-out or to a
// single consumer, passes through the seam, and the ledger is charged at send time,
// before the seam delivers — delivery timing never moves the counts
// Equations (1)/(2) predict.
func TestNetworkSeamSeesEveryDelivery(t *testing.T) {
	net := &heldNet{}
	c := NewWithOptions(3, Options{Net: net})
	defer c.Close()
	c.Comm(0).SendAll([]int{1, 2}, Tag{}, payload(1))
	c.Comm(1).SendAll([]int{0}, Tag{I: 1}, payload(2))
	if len(net.held) != 3 {
		t.Fatalf("network saw %d deliveries, want 3 (two broadcast hops, one point-to-point)", len(net.held))
	}
	if got := c.JobStats(0).TotalMessages(); got != 3 {
		t.Fatalf("%d messages counted before delivery, want 3", got)
	}
	for node := 0; node < 3; node++ {
		if n := c.Comm(node).Queued(); n != 0 {
			t.Fatalf("node %d holds %d messages the seam has not delivered", node, n)
		}
	}
	for _, deliver := range net.held {
		deliver()
	}
	for node, want := range []int{1, 1, 1} {
		if n := c.Comm(node).Queued(); n != want {
			t.Fatalf("node %d holds %d messages after delivery, want %d", node, n, want)
		}
	}
}
