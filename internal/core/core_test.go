package core

import (
	"math"
	"testing"

	"anybc/internal/gcrm"
)

func quickOpts() Options {
	return Options{GCRMSearch: gcrm.SearchOptions{Seeds: 10, SizeFactor: 3, BaseSeed: 1, Parallel: true}}
}

func TestNewAllSchemes(t *testing.T) {
	// A valid node count per scheme: 21 works for all but STS (which needs
	// P = r(r-1)/6, e.g. 35).
	validP := map[Scheme]int{TwoDBC: 21, G2DBC: 21, SBC: 21, GCRM: 21, STSScheme: 35}
	for _, s := range Schemes() {
		p, ok := validP[s]
		if !ok {
			t.Fatalf("scheme %s missing from test table", s)
		}
		d, err := New(s, p, quickOpts())
		if err != nil {
			t.Fatalf("New(%s, %d): %v", s, p, err)
		}
		if d.Nodes() != p {
			t.Errorf("New(%s): Nodes = %d, want %d", s, d.Nodes(), p)
		}
		if d.Owner(0, 0) < 0 || d.Owner(0, 0) >= p {
			t.Errorf("New(%s): Owner out of range", s)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(SBC, 23, quickOpts()); err == nil {
		t.Error("SBC for P=23 accepted")
	}
	if _, err := New("nope", 4, quickOpts()); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := New(TwoDBC, 0, quickOpts()); err == nil {
		t.Error("P=0 accepted")
	}
}

func TestNewCaseInsensitive(t *testing.T) {
	if _, err := New("G2DBC", 10, quickOpts()); err != nil {
		t.Errorf("uppercase scheme name rejected: %v", err)
	}
}

func TestDescribe(t *testing.T) {
	d, err := New(G2DBC, 23, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := Describe(d)
	if r.Dims != "20x23" || !r.Balanced {
		t.Errorf("Describe(G-2DBC 23) = %+v", r)
	}
	if math.Abs(r.CostLU-9.652) > 0.001 {
		t.Errorf("CostLU = %v", r.CostLU)
	}
}
