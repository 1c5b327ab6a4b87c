//go:build race

package runtime

// factorAllocBudget under the race detector, whose instrumentation allocates
// on its own account: a looser bound that still fails on a return to
// per-engine graph walks.
const factorAllocBudget = 80000
