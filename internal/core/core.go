// Package core is the high-level façade over the paper's contribution: it
// names the four distribution schemes (2DBC, G-2DBC, SBC, GCR&M), constructs
// them uniformly for any node count, and reports their communication costs —
// the entry point examples and command-line tools build on.
//
// The scheme implementations live in the focused packages: dist (2DBC,
// G-2DBC, SBC, STS, diagonal resolution), gcrm (the Greedy ColRow & Matching
// heuristic), and pattern (the cost metric of Section III). New is the one
// place a GCR&M search becomes a distribution.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"anybc/internal/dist"
	"anybc/internal/gcrm"
	"anybc/internal/pattern"
)

// Scheme names a distribution family.
type Scheme string

// The four schemes studied in the paper.
const (
	// TwoDBC is the classical 2D block-cyclic distribution on the most
	// square grid r·c = P.
	TwoDBC Scheme = "2dbc"
	// G2DBC is the paper's Generalized 2DBC for any P (Section IV).
	G2DBC Scheme = "g2dbc"
	// SBC is the Symmetric Block Cyclic distribution (valid P only).
	SBC Scheme = "sbc"
	// GCRM is the paper's Greedy ColRow & Matching heuristic for any P
	// (Section V).
	GCRM Scheme = "gcrm"
	// STSScheme is the explicit Steiner-triple-system distribution (valid
	// P = r(r−1)/6 with r ≡ 3 mod 6 only), this repository's answer to the
	// paper's open question on explicit symmetric patterns.
	STSScheme Scheme = "sts"
)

// Schemes lists every scheme name.
func Schemes() []Scheme { return []Scheme{TwoDBC, G2DBC, SBC, GCRM, STSScheme} }

// Options tunes scheme construction.
type Options struct {
	// GCRMSearch configures the GCR&M pattern search; zero value uses the
	// paper's protocol (100 seeds, sizes up to 6√P).
	GCRMSearch gcrm.SearchOptions
}

// New constructs the named scheme for exactly P nodes. SBC returns an error
// for node counts outside its two families; every other scheme accepts any
// P ≥ 1.
func New(s Scheme, P int, opt Options) (dist.Distribution, error) {
	if P < 1 {
		return nil, fmt.Errorf("core: invalid node count %d", P)
	}
	switch Scheme(strings.ToLower(string(s))) {
	case TwoDBC:
		return dist.Best2DBC(P), nil
	case G2DBC:
		return dist.NewG2DBC(P), nil
	case SBC:
		return dist.NewSBC(P)
	case STSScheme:
		return dist.NewSTSForP(P)
	case GCRM:
		so := opt.GCRMSearch
		if so.Seeds == 0 {
			so = gcrm.DefaultSearchOptions()
		}
		res, err := SearchGCRM(P, so)
		if err != nil {
			return nil, err
		}
		return dist.NewDiagResolver(fmt.Sprintf("GCR&M(%dx%d,P=%d)", res.R, res.R, P), res.Pattern), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (want one of %v)", s, Schemes())
	}
}

// searches memoizes SearchGCRM: a GCR&M pattern depends only on P and the
// search options, exactly the "database of patterns" the paper's conclusion
// suggests.
var searches sync.Map // searchKey -> *gcrm.Result

type searchKey struct {
	P    int
	opts gcrm.SearchOptions
}

// SearchGCRM returns the best GCR&M pattern for P under opts, searching once
// per process for each (P, options). The result is shared by every caller:
// it and its pattern are read-only.
func SearchGCRM(P int, opts gcrm.SearchOptions) (*gcrm.Result, error) {
	key := searchKey{P, opts}
	key.opts.Parallel = false // the result is the same either way
	if v, ok := searches.Load(key); ok {
		return v.(*gcrm.Result), nil
	}
	res, err := gcrm.Search(P, opts)
	if err != nil {
		return nil, err
	}
	searches.Store(key, res)
	return res, nil
}

// Report summarizes a distribution for display.
type Report struct {
	Name         string
	Nodes        int
	Dims         string
	CostLU       float64
	CostCholesky float64
	Balanced     bool
}

// Describe builds a Report for any pattern-backed distribution. Pattern-less
// distributions get a Report with the cost fields zeroed rather than a panic.
func Describe(d dist.Distribution) Report {
	p, ok := dist.PatternOf(d)
	if !ok {
		return Report{Name: d.Name(), Nodes: d.Nodes()}
	}
	r := Report{
		Name:     d.Name(),
		Nodes:    d.Nodes(),
		Dims:     p.Dims(),
		CostLU:   p.CostLU(),
		Balanced: p.BalanceSpread() <= 1,
	}
	if p.Square() || p.UndefinedCells() == 0 {
		r.CostCholesky = p.CostCholesky()
	}
	return r
}

// LoadPatternFile reads a pattern stored in the pattern.Marshal text format
// (as written by cmd/patterndb) and wraps it as a distribution: square
// patterns with undefined diagonal cells get the replication-time diagonal
// resolver; fully defined patterns become plain cyclic distributions.
func LoadPatternFile(path string) (dist.Distribution, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	p, err := pattern.Unmarshal(f)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	name := fmt.Sprintf("pattern(%s,%s,P=%d)",
		filepath.Base(path), p.Dims(), p.NumNodes())
	if p.UndefinedCells() > 0 {
		if !p.Square() {
			return nil, fmt.Errorf("core: %s: undefined cells in a non-square pattern", path)
		}
		return dist.NewDiagResolver(name, p), nil
	}
	return dist.NewCyclic(name, p)
}

// FromDB returns the stored GCR&M pattern for P from a cmd/patterndb
// directory, matching its gcrm-%04d.pattern layout.
func FromDB(dir string, P int) (dist.Distribution, error) {
	return LoadPatternFile(filepath.Join(dir, fmt.Sprintf("gcrm-%04d.pattern", P)))
}
