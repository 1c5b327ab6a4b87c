//go:build !race

package runtime

// factorAllocBudget is TestRunAllocBudget's threshold on one FactorLU call of
// the lu-overhead shape: the ≈ 2.1k objects the call makes (nine of them the
// matrix's 576 tiles, three slab chunks the result is then built from; 3.3k
// when each tile was two objects of its own), plus a quarter.
const factorAllocBudget = 2650

// factorByteBudget is its threshold on the bytes one warm call allocates:
// ≈ 0.91 MB at GOMAXPROCS=2 and ≈ 0.97 MB at 1, where the receivers fall
// further behind and the mailboxes grow more.
const factorByteBudget = 1_000_000

const raceBuild = false
