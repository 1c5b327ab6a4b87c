package runtime

import (
	"sync"
	"testing"

	"anybc/internal/cluster"
	"anybc/internal/core"
	"anybc/internal/dist"
	"anybc/internal/tile"
)

// payloadSpy is a faithful network that records every payload it carries,
// and the tag it carries it under.
type payloadSpy struct {
	mu   sync.Mutex
	sent []*tile.Tile
	tags []cluster.Tag
}

func (s *payloadSpy) Deliver(msg cluster.Message, deliver func(cluster.Message)) {
	if msg.Payload != nil {
		s.mu.Lock()
		s.sent, s.tags = append(s.sent, msg.Payload), append(s.tags, msg.Tag)
		s.mu.Unlock()
	}
	deliver(msg)
}

// snapshots counts the payloads the spy carried that are not one of the
// run's own final tiles: copies someone took.
func (s *payloadSpy) snapshots(final map[*tile.Tile]bool) int {
	n := 0
	for _, p := range s.sent {
		if !final[p] {
			n++
		}
	}
	return n
}

// TestProductGraphsSendOnlyFinalVersions holds the by-reference send path to
// the factorizations: on a cluster of its own whose network records every
// payload, a run ships only the owners' final tiles, never a copy. (That every
// product plan sends only last versions is plan's
// TestProductPlansSendOnlyLastVersions.)
func TestProductGraphsSendOnlyFinalVersions(t *testing.T) {
	const mt, b = 12, 8
	gcrm, err := core.New(core.GCRM, 6, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mode   cluster.BroadcastMode
		factor func(Options) (map[*tile.Tile]bool, error)
	}{
		{"FactorLU", cluster.BroadcastFlat, func(opt Options) (map[*tile.Tile]bool, error) {
			lu, _, err := FactorLU(mt, b, dist.NewG2DBC(6), GenDiagDominant(mt, b, 1), opt)
			final := map[*tile.Tile]bool{}
			for i := 0; err == nil && i < mt*mt; i++ {
				final[lu.Tile(i/mt, i%mt)] = true
			}
			return final, err
		}},
		{"FactorCholesky", cluster.BroadcastTree, func(opt Options) (map[*tile.Tile]bool, error) {
			l, _, err := FactorCholesky(mt, b, gcrm, GenSPD(mt, b, 1), opt)
			final := map[*tile.Tile]bool{}
			for i := 0; err == nil && i < mt*mt; i++ {
				if i%mt <= i/mt {
					final[l.Tile(i/mt, i%mt)] = true
				}
			}
			return final, err
		}},
	} {
		spy := &payloadSpy{}
		cl := cluster.NewWithOptions(6, cluster.Options{Net: spy, Broadcast: c.mode})
		final, err := c.factor(Options{Cluster: cl})
		cl.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(spy.sent) == 0 || spy.snapshots(final) != 0 || cl.PoolOutstanding() != 0 {
			t.Errorf("%s: %d payloads sent, %d of them snapshots, %d still in flight",
				c.name, len(spy.sent), spy.snapshots(final), cl.PoolOutstanding())
		}
	}
}
