//go:build !race

package runtime

// factorAllocBudget is TestRunAllocBudget's threshold on one FactorLU call of
// the lu-overhead shape: the ≈ 1.4k objects the call makes (nine of them the
// matrix's 576 tiles, three slab chunks the result is then built from; 3.3k
// when each tile was two objects of its own, 2.1k while each node had a
// receiver goroutine and every counter of the ledger was allocated), plus a
// quarter.
const factorAllocBudget = 1750

// factorByteBudget is its threshold on the bytes one warm call allocates:
// ≈ 0.58 MB at GOMAXPROCS=1 and 2, ≈ 0.60 MB at 4, plus a tenth. (0.91 MB
// while senders queued every message for a receiver goroutine, whose
// mailboxes grew, and the shares held every task's kernel inputs.)
const factorByteBudget = 660_000

const raceBuild = false
