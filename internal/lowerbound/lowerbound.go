// Package lowerbound holds the two communication lower bounds of Section
// II-A of the paper and the per-node bounds derived from them. They are
// lower bounds: TestSchemesNeverBeatTheBounds holds every scheme the module
// builds, at every P = 2…64, to each of them.
//
// Each theorem bounds the words a processor must load into a fast memory of
// M words, starting empty; it counts loads, not stores. On P nodes with M
// words each, a load is a word received from another node and the work
// splits across the nodes, so the mean per-node received volume is at least
// the theorem's value over P, less the input a node holds when the run
// starts.
package lowerbound

import "math"

// LUSeq returns (2/3)·m³/√M, the leading term of the I/O lower bound of
// Kwasniewski et al. (COnfLUX, arXiv:2010.05975) for the LU factorization of
// an m×m matrix with a fast memory of M words. The terms of lower order in m
// are dropped.
func LUSeq(m, M float64) float64 {
	return 2.0 / 3.0 * m * m * m / math.Sqrt(M)
}

// CholeskySeq returns m³/(3√2·√M), the leading term of the I/O lower bound
// of Beaumont et al. (SPAA 2022) for the Cholesky factorization of an m×m
// matrix with a fast memory of M words. The terms of lower order in m are
// dropped.
func CholeskySeq(m, M float64) float64 {
	return m * m * m / (3 * math.Sqrt2 * math.Sqrt(M))
}

// LUPerNode returns LUPerNodeRepl(m, P, 1), the bound without replication.
func LUPerNode(m float64, P int) float64 { return LUPerNodeRepl(m, P, 1) }

// LUPerNodeRepl returns a lower bound on the mean words a node receives in
// the LU factorization of an m×m matrix on P nodes, each with the memory of
// c replicas, M = c·m²/P (fair distribution): LUSeq(m, M)/P − m²/P, that is
// (2/3)·m²/√(cP) − m²/P, clamped at 0. The subtracted term is the node's
// share of A's m² entries, which it holds before the run; the c − 1 other
// replicas are received like any other word.
func LUPerNodeRepl(m float64, P, c int) float64 {
	p := float64(P)
	return max(0, LUSeq(m, float64(c)*m*m/p)/p-m*m/p)
}

// CholeskyPerNodeRepl is LUPerNodeRepl for Cholesky: CholeskySeq(m, M)/P at
// M = c·m²/P, less the node's share of the m(m+1)/2 entries of A's lower
// triangle, clamped at 0. The triangle fits in half that M; the larger M
// only lowers the bound.
func CholeskyPerNodeRepl(m float64, P, c int) float64 {
	p := float64(P)
	return max(0, CholeskySeq(m, float64(c)*m*m/p)/p-m*(m+1)/(2*p))
}

// PatternCostLU returns 2√P, a lower bound on the pattern cost T = x̄ + ȳ of
// any pattern of r rows and c columns whose P nodes own rc/P cells each
// (a symmetric pattern's undefined diagonal breaks this). Node k sits on a_k
// rows and b_k columns, and its rc/P cells fit in them, so a_k·b_k ≥ rc/P.
// By AM–GM, a_k/r + b_k/c ≥ 2√(a_k·b_k/(rc)) ≥ 2/√P, and summing over the
// P nodes gives T = Σa_k/r + Σb_k/c ≥ 2√P.
func PatternCostLU(P int) float64 {
	return 2 * math.Sqrt(float64(P))
}
