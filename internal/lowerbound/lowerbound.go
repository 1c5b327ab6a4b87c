// Package lowerbound collects the communication lower bounds surveyed in
// Section II-A of the paper. They serve as reference curves in the cost
// figures and as sanity bounds in tests: no distribution scheme may beat
// them.
//
// Two settings appear. In the two-level memory setting a single processor
// owns a fast memory of size M words; bounds are on traffic between fast and
// slow memory. In the parallel setting P nodes each hold M = O(m²/P) words
// (the "fair distribution" assumption); bounds are per-node communication
// volumes.
package lowerbound

import "math"

// LUSeq returns the Kwasniewski et al. (PPoPP 2021) bound for LU
// factorization of an m×m matrix in the two-level setting: (2/3)·m³/√M.
func LUSeq(m, M float64) float64 {
	return 2.0 / 3.0 * m * m * m / math.Sqrt(M)
}

// CholeskySeq returns the Beaumont et al. (SPAA 2022) bound for Cholesky
// factorization in the two-level setting: m³/(3√2·√M).
func CholeskySeq(m, M float64) float64 {
	return m * m * m / (3 * math.Sqrt2 * math.Sqrt(M))
}

// LUPerNode returns the COnfLUX per-node communication bound for parallel LU
// under fair distribution: m²/√P + O(m²/P); the dominant term is returned.
func LUPerNode(m float64, P int) float64 {
	return m * m / math.Sqrt(float64(P))
}

// LUPerNodeRepl returns the memory-parameterized COnfLUX per-node bound for
// parallel LU with replication factor c on P nodes, each holding
// M ≈ c·m²/P words: m²/√(cP) + O(m²/P) (Kwasniewski et al.,
// arXiv:2010.05975, Theorem 1 with the memory term M = c·m²/P). The dominant
// term is returned; c = 1 reduces to LUPerNode exactly.
func LUPerNodeRepl(m float64, P, c int) float64 {
	return m * m / math.Sqrt(float64(c)*float64(P))
}

// CholeskyPerNodeRepl returns the memory-parameterized per-node bound for
// parallel Cholesky with replication factor c: the LU bound scaled by the
// symmetric 1/√2 factor of Beaumont et al. (SPAA 2022), m²/(√2·√(cP)).
func CholeskyPerNodeRepl(m float64, P, c int) float64 {
	return m * m / (math.Sqrt2 * math.Sqrt(float64(c)*float64(P)))
}

// PatternCostLU returns the lower bound on the Section III pattern cost
// metric T = x̄ + ȳ for any balanced pattern on P nodes: every row and every
// column must expose at least ⌈√P⌉ … more precisely the paper states that
// "any pattern on P nodes requires at least ⌈√P⌉ nodes per row and per
// column" on average across an entire replication, giving T ≥ 2√P.
func PatternCostLU(P int) float64 {
	return 2 * math.Sqrt(float64(P))
}

// PatternCostCholesky returns the √2-improved symmetric reference: SBC
// achieves z̄ ≈ √(2P) while remaining a factor √2 above the symmetric lower
// bound √(P)·…; the theoretical limit implied by the SPAA 2022 bounds is
// √P (up to lower-order terms), which is returned here.
func PatternCostCholesky(P int) float64 {
	return math.Sqrt(float64(P))
}

// SBCBasicLaw and SBCExtendedLaw are the cost laws quoted in Section V-B for
// the two SBC families: √(2P) and √(2P) − 0.5.
func SBCBasicLaw(P int) float64 { return math.Sqrt(2 * float64(P)) }

// SBCExtendedLaw returns √(2P) − 0.5; see SBCBasicLaw.
func SBCExtendedLaw(P int) float64 { return math.Sqrt(2*float64(P)) - 0.5 }

// GCRMEmpiricalLaw returns √(3P/2), the empirical lower limit the paper
// observes for GCR&M patterns (regular patterns with v = 3 colrows per node).
func GCRMEmpiricalLaw(P int) float64 { return math.Sqrt(1.5 * float64(P)) }
