//go:build !race

package runtime

// factorAllocBudget is TestRunAllocBudget's threshold on one FactorLU call of
// the lu-overhead shape: the ≈ 4.1k objects the call makes (1152 of them the
// matrix's 576 tiles, which the result is then built from), plus a quarter.
const factorAllocBudget = 5100

const raceBuild = false
