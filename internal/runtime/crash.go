package runtime

import "anybc/internal/chaos"

// crashInjection is the chaos plan's node death, built only for a rank the
// plan names: the node dies just before its owned task number at. What dying
// means is the core's business (see engine.pop).
type crashInjection struct {
	plan       *chaos.Plan
	at         int
	dispatched int
}

// due reports — and logs in the fault plan — that the node dies now, before
// the task a worker is about to pop; otherwise it counts that pop.
func (c *crashInjection) due(rank int) bool {
	if c.dispatched == c.at {
		c.plan.RecordCrash(rank, c.at)
		return true
	}
	c.dispatched++
	return false
}
