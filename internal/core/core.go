// Package core is the high-level façade over the paper's contribution: it
// names the four distribution schemes (2DBC, G-2DBC, SBC, GCR&M), constructs
// them uniformly for any node count, and reports their communication costs —
// the entry point examples and command-line tools build on.
//
// The scheme implementations live in the focused packages: dist (2DBC,
// G-2DBC, SBC, STS, diagonal resolution), gcrm (the Greedy ColRow & Matching
// heuristic), and pattern (the cost metric of Section III). New is the one
// place a GCR&M search becomes a distribution; the paper-protocol pattern of
// every P = 2..64 is committed in gcrm_patterns.txt and embedded, so those
// cost no search.
package core

import (
	"bufio"
	_ "embed"
	"fmt"
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
	// GCRMSearch configures the GCR&M pattern search. The zero value
	// (Parallel aside) is the paper's protocol, gcrm.DefaultSearchOptions:
	// 100 seeds, sizes up to 6√P.
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
		if withoutParallel(so) == (gcrm.SearchOptions{}) {
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
// search options, so each (P, options) is resolved once per process — from
// the embedded database or by a search — and every caller shares the result.
var searches sync.Map // searchKey -> *gcrm.Result

type searchKey struct {
	P    int
	opts gcrm.SearchOptions
}

// withoutParallel drops the one search option that cannot change the result.
func withoutParallel(o gcrm.SearchOptions) gcrm.SearchOptions {
	o.Parallel = false
	return o
}

// SearchGCRM returns the best GCR&M pattern for P under opts, searching once
// per process for each (P, options). Under the paper's protocol
// (gcrm.DefaultSearchOptions) a P the embedded database covers is read from
// it instead. The result is shared by every caller: it and its pattern are
// read-only.
func SearchGCRM(P int, opts gcrm.SearchOptions) (*gcrm.Result, error) {
	key := searchKey{P, withoutParallel(opts)}
	if v, ok := searches.Load(key); ok {
		return v.(*gcrm.Result), nil
	}
	var res *gcrm.Result
	if key.opts == withoutParallel(gcrm.DefaultSearchOptions()) {
		db, err := storedPatterns()
		if err != nil {
			return nil, err
		}
		res = db[P]
	}
	if res == nil {
		var err error
		if res, err = gcrm.Search(P, opts); err != nil {
			return nil, err
		}
	}
	v, _ := searches.LoadOrStore(key, res)
	return v.(*gcrm.Result), nil
}

// patternDB is the output of cmd/patterndb: the paper-protocol search result
// for every P = 2..64.
//
//go:embed gcrm_patterns.txt
var patternDB string

// storedPatterns parses patternDB on first use.
var storedPatterns = sync.OnceValues(func() (map[int]*gcrm.Result, error) {
	return parsePatterns(patternDB)
})

// parsePatterns reads the format cmd/patterndb writes: per node count a
// "P <P> seed <seed>" line, then the pattern in the pattern.Marshal format.
// R and Cost are recomputed from the pattern, exactly as the search sets them.
func parsePatterns(text string) (map[int]*gcrm.Result, error) {
	db := make(map[int]*gcrm.Result)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		var P int
		var seed int64
		if _, err := fmt.Sscanf(sc.Text(), "P %d seed %d", &P, &seed); err != nil {
			return nil, fmt.Errorf("core: pattern database: bad entry header %q: %w", sc.Text(), err)
		}
		if db[P] != nil {
			return nil, fmt.Errorf("core: pattern database: second entry for P=%d", P)
		}
		p, err := pattern.Unmarshal(sc)
		if err != nil {
			return nil, fmt.Errorf("core: pattern database entry P=%d: %w", P, err)
		}
		if !p.Square() || p.NumNodes() != P {
			return nil, fmt.Errorf("core: pattern database entry P=%d holds a %s pattern of %d nodes", P, p.Dims(), p.NumNodes())
		}
		db[P] = &gcrm.Result{Pattern: p, R: p.Rows(), Seed: seed, Cost: p.CostCholesky()}
	}
	return db, sc.Err()
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
