//go:build race

package runtime

// factorAllocBudget under the race detector, whose instrumentation allocates
// on its own account: the ≈ 2.1k objects the call makes there, plus a quarter.
const factorAllocBudget = 2700

// raceBuild: sync.Pool deliberately drops most of what it is handed under the
// race detector, so byte counts that rely on pooled buffers being reused mean
// nothing there.
const raceBuild = true

// factorByteBudget under the race detector: one warm call allocates ≈ 0.90 MB
// there, against ≈ 0.91 MB without it; the bound is the same 1.0 MB.
const factorByteBudget = 1_000_000
