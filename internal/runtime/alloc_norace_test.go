//go:build !race

package runtime

// factorAllocBudget is TestRunAllocBudget's threshold on one FactorLU call of
// the lu-overhead shape.
const factorAllocBudget = 40000
