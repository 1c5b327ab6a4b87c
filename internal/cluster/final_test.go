package cluster

import (
	"slices"
	"testing"
)

// drainBroadcast receives one broadcast on every destination, relaying each
// hop's Forward list as the runtime does, and returns the received messages
// unreleased, one per destination.
func drainBroadcast(t *testing.T, c *Cluster, dsts []int) []Message {
	t.Helper()
	got := map[int]Message{}
	for progress := true; progress && len(got) < len(dsts); {
		progress = false
		for _, d := range dsts {
			if _, done := got[d]; done {
				continue
			}
			if msg, ok := tryRecv(c, d); ok {
				c.Comm(d).Forward(msg)
				got[d], progress = msg, true
			}
		}
	}
	if len(got) != len(dsts) {
		t.Fatalf("%d of %d destinations received the broadcast", len(got), len(dsts))
	}
	msgs := make([]Message, 0, len(dsts))
	for _, d := range dsts {
		msgs = append(msgs, got[d])
	}
	return msgs
}

// TestSendAllByReferenceSharesTheSendersTile holds Broadcast to SendAll, its
// cloning form, under both broadcast modes: every destination's payload is the
// sender's own tile, the ledger reads exactly what SendAll of the same shape
// reads, and the payload counts as one in flight until its last share is
// released.
func TestSendAllByReferenceSharesTheSendersTile(t *testing.T) {
	const p = 8
	dsts := []int{3, 1, 7, 2, 6, 4, 5}
	for _, mode := range []BroadcastMode{BroadcastFlat, BroadcastTree} {
		t.Run(mode.String(), func(t *testing.T) {
			cloned := NewWithOptions(p, Options{Broadcast: mode})
			defer cloned.Close()
			cloned.Comm(0).SendAll(dsts, Tag{I: 2, J: 1}, payload(5))
			for _, msg := range drainBroadcast(t, cloned, dsts) {
				msg.Release()
			}

			c := NewWithOptions(p, Options{Broadcast: mode})
			defer c.Close()
			src := payload(5)
			c.Comm(0).Broadcast(dsts, Tag{I: 2, J: 1}, src)
			msgs := drainBroadcast(t, c, dsts)
			for _, msg := range msgs {
				if msg.Payload != src {
					t.Fatalf("node %d received a copy, not the sender's tile", msg.To)
				}
			}
			want, got := cloned.JobStats(0), c.JobStats(0)
			for _, ctr := range []Counter{Messages, Bytes, WireBytes, Hops, Forwards} {
				if !slices.Equal(got.matrix(ctr), want.matrix(ctr)) {
					t.Errorf("counter %d: by reference %v, cloned %v", ctr, got.matrix(ctr), want.matrix(ctr))
				}
			}

			for _, msg := range msgs {
				if n := c.PoolOutstanding(); n != 1 {
					t.Fatalf("%d payloads in flight before the last Release, want 1", n)
				}
				msg.Release()
			}
			if n := c.PoolOutstanding(); n != 0 {
				t.Fatalf("%d payloads in flight after the last Release, want 0", n)
			}
		})
	}
}
