package cluster

import (
	"math/bits"
	"testing"

	"anybc/internal/tile"
)

// log2Ceil returns ⌈log₂(n)⌉ for n ≥ 1: the binomial-tree root degree for a
// broadcast with n participants (sender + n−1 recipients).
func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// TestTreeFanoutShape checks the binomial split for every broadcast width up
// to 64: the root degree is ⌈log₂(k+1)⌉, the children plus their subtrees
// partition the destination list exactly, and recursive expansion of the tree
// reaches every destination exactly once in k total hops.
func TestTreeFanoutShape(t *testing.T) {
	for k := 1; k <= 64; k++ {
		dsts := make([]int, k)
		for i := range dsts {
			dsts[i] = i + 1 // node 0 is the sender
		}
		children, subtrees := TreeFanout(dsts)
		if len(children) != len(subtrees) {
			t.Fatalf("k=%d: %d children but %d subtrees", k, len(children), len(subtrees))
		}
		if want := log2Ceil(k + 1); len(children) != want {
			t.Fatalf("k=%d: root degree %d, want ⌈log₂(k+1)⌉ = %d", k, len(children), want)
		}
		// Expand the whole tree: every hop delivers to exactly one node, and
		// the hop count equals k — the tree moves no more data than flat
		// fan-out, it only re-distributes who transmits it.
		delivered := map[int]int{}
		hops := 0
		var expand func(children []int, subtrees [][]int)
		expand = func(children []int, subtrees [][]int) {
			for i, c := range children {
				hops++
				delivered[c]++
				if len(subtrees[i]) > 0 {
					expand(TreeFanout(subtrees[i]))
				}
			}
		}
		expand(children, subtrees)
		if hops != k {
			t.Fatalf("k=%d: tree uses %d hops, want exactly k", k, hops)
		}
		for _, d := range dsts {
			if delivered[d] != 1 {
				t.Fatalf("k=%d: destination %d delivered %d times", k, d, delivered[d])
			}
		}
		if len(delivered) != k {
			t.Fatalf("k=%d: delivered to %d nodes, want %d", k, len(delivered), k)
		}
	}
}

// TestSendAllTreeDelivers drives one tree broadcast by hand: recipients relay
// their Forward lists exactly as the runtime does, every destination receives
// the payload exactly once, and the stats split into root hops (⌈log₂(k+1)⌉)
// plus forwards while the logical message count stays the flat-mode k.
func TestSendAllTreeDelivers(t *testing.T) {
	const p = 12 // sender 0, recipients 1..11 → k = 11
	c := NewWithOptions(p, Options{Broadcast: BroadcastTree})
	defer c.Close()
	dsts := make([]int, p-1)
	for i := range dsts {
		dsts[i] = i + 1
	}
	c.Comm(0).SendAll(dsts, Tag{I: 5, J: 6}, payload(42))
	// Drain each mailbox in dispatch order, relaying like engine.onArrival.
	// The mailboxes are unbounded, so a single goroutine can walk the tree
	// breadth-first: a node's hop is only ever sent after its parent's
	// arrival was processed here.
	got := map[int]int{}
	for queue := []int{}; ; {
		if len(queue) == 0 {
			for _, d := range dsts {
				if got[d] == 0 {
					queue = append(queue, d)
				}
			}
			if len(queue) == 0 {
				break
			}
		}
		node := queue[0]
		queue = queue[1:]
		if got[node] > 0 {
			continue
		}
		msg, ok := tryRecv(c, node)
		if !ok {
			continue
		}
		got[node]++
		if msg.Payload.At(0, 0) != 42 {
			t.Fatalf("node %d: wrong payload %v", node, msg.Payload.At(0, 0))
		}
		c.Comm(node).Forward(msg)
		queue = append(queue, msg.Forward...)
		msg.Release()
	}
	for _, d := range dsts {
		if got[d] != 1 {
			t.Fatalf("node %d received %d deliveries, want 1", d, got[d])
		}
	}
	s := c.JobStats(0)
	k := int64(p - 1)
	if s.TotalMessages() != k {
		t.Fatalf("logical messages %d, want k=%d", s.TotalMessages(), k)
	}
	if s.TotalHops() != k {
		t.Fatalf("wire hops %d, want k=%d (tree conserves hop count)", s.TotalHops(), k)
	}
	rootSends := s.TotalHops() - s.TotalForwards()
	if want := int64(log2Ceil(p)); rootSends != want {
		t.Fatalf("root transmitted %d hops, want ⌈log₂(k+1)⌉ = %d", rootSends, want)
	}
	if hops := s.BySrc(Hops); hops[0] != int64(log2Ceil(p)) {
		t.Fatalf("BySrc(Hops)[0] = %d, want %d", hops[0], log2Ceil(p))
	}
}

// tryRecv drains one message from a node's mailbox without blocking forever:
// everything this test awaits has already been dispatched synchronously.
func tryRecv(c *Cluster, node int) (Message, bool) {
	inbox := c.plane(0).inboxes[node]
	inbox.mu.Lock()
	empty := inbox.head == len(inbox.queue)
	inbox.mu.Unlock()
	if empty {
		return Message{}, false
	}
	return inbox.get()
}

// TestSendAllForwardSurvivesCallerScratchReuse pins the aliasing contract
// regression: publishers reuse one scratch slice for consecutive broadcast
// destination lists, so the Forward lists riding inside in-flight messages
// must not alias the caller's slice. (The original bug stranded whole
// subtrees when the next publish rewrote the shared backing array,
// deadlocking fault-free runs.)
func TestSendAllForwardSurvivesCallerScratchReuse(t *testing.T) {
	c := NewWithOptions(8, Options{Broadcast: BroadcastTree})
	defer c.Close()
	scratch := []int{1, 2, 3, 4, 5, 6, 7}
	c.Comm(0).SendAll(scratch, Tag{I: 1}, payload(1))
	// Publisher reuses the scratch for an unrelated, smaller broadcast.
	scratch = scratch[:0]
	scratch = append(scratch, 7, 6, 5)
	c.Comm(0).SendAll(scratch, Tag{I: 2}, payload(2))
	// The first broadcast's hops must still carry subtrees of {1..7}.
	seen := map[int]bool{}
	var walk func(node int)
	walk = func(node int) {
		for {
			msg, ok := tryRecv(c, node)
			if !ok {
				return
			}
			if msg.Tag.I != 1 {
				msg.Release()
				continue
			}
			if seen[node] {
				t.Fatalf("node %d delivered twice", node)
			}
			seen[node] = true
			c.Comm(node).Forward(msg)
			fwd := append([]int(nil), msg.Forward...)
			msg.Release()
			for _, child := range fwd {
				walk(child)
			}
			return
		}
	}
	for d := 1; d <= 7; d++ {
		walk(d)
	}
	for d := 1; d <= 7; d++ {
		if !seen[d] {
			t.Fatalf("node %d never received broadcast 1: Forward list corrupted by scratch reuse", d)
		}
	}
}

// TestSendAllValidatesBeforeDispatch pins the satellite fixes: a malformed
// destination list (self-send, out-of-range, or duplicate) must panic before
// any clone is taken or any message dispatched — no payload in flight with an
// undrainable refcount, no half-delivered broadcast.
func TestSendAllValidatesBeforeDispatch(t *testing.T) {
	cases := []struct {
		name string
		dsts []int
	}{
		{"self-send mid-list", []int{1, 2, 0, 3}},
		{"out-of-range mid-list", []int{1, 2, 99, 3}},
		{"duplicate destination", []int{1, 2, 3, 2}},
	}
	for _, mode := range []BroadcastMode{BroadcastFlat, BroadcastTree} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				c := NewWithOptions(4, Options{Broadcast: mode})
				defer c.Close()
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("expected panic on malformed destination list")
						}
					}()
					c.Comm(0).SendAll(tc.dsts, Tag{}, payload(9))
				}()
				// Validation fired before dispatch: nothing was counted and
				// nothing reached the valid destinations earlier in the list.
				if got := c.JobStats(0).TotalMessages(); got != 0 {
					t.Fatalf("half-dispatched broadcast: %d messages counted", got)
				}
				for node := 1; node < 4; node++ {
					if _, ok := tryRecv(c, node); ok {
						t.Fatalf("node %d received part of an invalid broadcast", node)
					}
				}
			})
		}
	}
}

// TestForwardCountsHopsNotMessages verifies the accounting split: relayed
// hops increment Hops and Forwards on the relay's row but never the logical
// Messages/Bytes matrices the Eq (1)/(2) checks read.
func TestForwardCountsHopsNotMessages(t *testing.T) {
	c := NewWithOptions(4, Options{Broadcast: BroadcastTree})
	defer c.Close()
	// k=3 → root hops to 1 and 2; node 2 carries the subtree {3}.
	c.Comm(0).SendAll([]int{1, 2, 3}, Tag{}, payload(1))
	msg, ok := tryRecv(c, 2)
	if !ok {
		t.Fatal("root hop to the relay not delivered")
	}
	if len(msg.Forward) == 0 {
		t.Fatalf("hop to node 2 carries no subtree: %+v", msg)
	}
	c.Comm(2).Forward(msg)
	msg.Release()
	s := c.JobStats(0)
	if s.At(Messages, 2, 1)+s.At(Messages, 2, 3) != 0 {
		t.Fatalf("relay counted as logical message: %+v", s.matrix(Messages))
	}
	if s.At(Messages, 0, 1) != 1 || s.At(Messages, 0, 2) != 1 || s.At(Messages, 0, 3) != 1 {
		t.Fatalf("logical messages not owner→consumer: %+v", s.matrix(Messages))
	}
	if s.TotalForwards() == 0 {
		t.Fatal("forwarded hops not counted")
	}
	if s.TotalHops() != s.TotalMessages() {
		t.Fatalf("hops %d != messages %d on a faithful network", s.TotalHops(), s.TotalMessages())
	}
}

// TestSendAllCountsCloneBytes pins the satellite fix for the traffic
// counters: bytes are charged from the transport's private clone, so a
// caller resizing its buffer mid-broadcast cannot skew the ledger.
func TestSendAllCountsCloneBytes(t *testing.T) {
	c := New(2)
	defer c.Close()
	p := tile.New(4, 4)
	c.Comm(0).SendAll([]int{1}, Tag{}, p)
	want := int64(p.Bytes())
	if got := c.JobStats(0).TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d (the shipped clone's size)", got, want)
	}
}
