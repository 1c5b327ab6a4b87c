//go:build race

package runtime

// factorAllocBudget under the race detector, whose instrumentation allocates
// on its own account: the ≈ 1.5k objects the call makes there, plus a quarter.
const factorAllocBudget = 1900

// raceBuild: sync.Pool deliberately drops most of what it is handed under the
// race detector, so byte counts that rely on pooled buffers being reused mean
// nothing there.
const raceBuild = true

// factorByteBudget under the race detector: one warm call allocates ≈ 0.62 MB
// there at GOMAXPROCS=1 and 2 and ≈ 0.65 MB at 4, against ≈ 0.58 MB without
// it; the bound is that plus a tenth.
const factorByteBudget = 715_000
