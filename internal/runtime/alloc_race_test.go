//go:build race

package runtime

// factorAllocBudget under the race detector, whose instrumentation allocates
// on its own account: the ≈ 2.1k objects the call makes there, plus a quarter.
const factorAllocBudget = 2700

// raceBuild: sync.Pool deliberately drops most of what it is handed under the
// race detector, so byte counts that rely on pooled buffers being reused mean
// nothing there.
const raceBuild = true
