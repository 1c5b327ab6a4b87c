package pattern

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FromRows builds a pattern from a slice of equally sized rows.
func FromRows(rows [][]int) (*Pattern, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("pattern: empty rows")
	}
	p := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != p.cols {
			return nil, fmt.Errorf("pattern: row %d has %d cells, want %d", i, len(r), p.cols)
		}
		for j, v := range r {
			p.Set(i, j, v)
		}
	}
	return p, nil
}

// MustFromRows is FromRows that panics on error, for known-good shapes.
func MustFromRows(rows [][]int) *Pattern {
	p, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return p
}

func TestNewAllUndefined(t *testing.T) {
	p := New(3, 4)
	if p.Rows() != 3 || p.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", p.Rows(), p.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if p.At(i, j) != Undefined {
				t.Fatalf("cell (%d,%d) = %d, want Undefined", i, j, p.At(i, j))
			}
		}
	}
	if p.UndefinedCells() != 12 {
		t.Fatalf("UndefinedCells = %d, want 12", p.UndefinedCells())
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	p, err := FromRows([][]int{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(1, 2) != 5 || p.At(0, 0) != 0 {
		t.Fatalf("unexpected cells: %v", p)
	}
	if p.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", p.NumNodes())
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil): want error")
	}
	if _, err := FromRows([][]int{{}}); err == nil {
		t.Error("FromRows empty row: want error")
	}
	if _, err := FromRows([][]int{{0, 1}, {2}}); err == nil {
		t.Error("FromRows ragged: want error")
	}
}

func TestOwnerReplication(t *testing.T) {
	// The paper's Figure 2 layout: 2x3 pattern for P=6.
	p := MustFromRows([][]int{{0, 1, 2}, {3, 4, 5}})
	cases := []struct{ i, j, want int }{
		{0, 0, 0}, {0, 3, 0}, {1, 0, 3}, {2, 0, 0},
		{5, 7, 4}, {11, 11, 5},
	}
	for _, c := range cases {
		if got := p.Owner(c.i, c.j); got != c.want {
			t.Errorf("Owner(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestCloneEqual(t *testing.T) {
	p := MustFromRows([][]int{{0, 1}, {2, 3}})
	q := p.Clone()
	if !reflect.DeepEqual(p, q) {
		t.Fatal("clone not equal to original")
	}
	q.Set(0, 0, 3)
	if reflect.DeepEqual(p, q) {
		t.Fatal("mutating clone affected equality unexpectedly")
	}
	if p.At(0, 0) != 0 {
		t.Fatal("mutating clone changed original")
	}
	r := MustFromRows([][]int{{0, 1, 2}})
	if reflect.DeepEqual(p, r) {
		t.Fatal("patterns with different shapes reported equal")
	}
}

func TestCountsAndBalance(t *testing.T) {
	p := MustFromRows([][]int{{0, 1, 0}, {1, 0, 1}})
	counts := p.Counts()
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("Counts = %v, want [3 3]", counts)
	}
	if p.BalanceSpread() != 0 {
		t.Fatal("balanced pattern reported unbalanced")
	}
	q := MustFromRows([][]int{{0, 0}, {0, 1}})
	if q.BalanceSpread() == 0 {
		t.Fatal("unbalanced pattern reported balanced")
	}
	if q.BalanceSpread() != 2 {
		t.Fatalf("BalanceSpread = %d, want 2", q.BalanceSpread())
	}
}

func TestValidate(t *testing.T) {
	good := MustFromRows([][]int{{0, 1}, {1, 0}})
	if err := good.Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}

	// Undefined diagonal on a square pattern is allowed.
	diag := MustFromRows([][]int{{0, 1}, {1, 0}})
	diag.Set(0, 0, Undefined)
	if err := diag.Validate(); err != nil {
		t.Errorf("undefined diagonal rejected: %v", err)
	}

	// Undefined off-diagonal cell is rejected.
	offdiag := MustFromRows([][]int{{0, 1}, {1, 0}})
	offdiag.Set(0, 1, Undefined)
	if err := offdiag.Validate(); err == nil {
		t.Error("undefined off-diagonal accepted")
	}

	// Undefined cell in a non-square pattern is rejected.
	rect := MustFromRows([][]int{{0, 1, 1}, {1, 0, 0}})
	rect.Set(0, 0, Undefined)
	if err := rect.Validate(); err == nil {
		t.Error("undefined cell in non-square pattern accepted")
	}

	// A hole in the node id space is rejected.
	hole := MustFromRows([][]int{{0, 2}, {2, 0}})
	if err := hole.Validate(); err == nil {
		t.Error("pattern with missing node id accepted")
	}

	// Fully undefined pattern is rejected.
	if err := New(2, 2).Validate(); err == nil {
		t.Error("fully undefined pattern accepted")
	}
}

func TestString(t *testing.T) {
	p := MustFromRows([][]int{{0, 1}, {2, 3}})
	p.Set(1, 1, Undefined)
	s := p.String()
	if !strings.Contains(s, "0 1") || !strings.Contains(s, "2 .") {
		t.Errorf("String output unexpected:\n%s", s)
	}
	// Wide ids should align.
	wide := MustFromRows([][]int{{0, 10}, {5, 11}})
	if got := wide.String(); !strings.Contains(got, " 0 10") {
		t.Errorf("wide String output unexpected:\n%s", got)
	}
}

func TestNumNodesEmpty(t *testing.T) {
	if n := New(2, 2).NumNodes(); n != 0 {
		t.Fatalf("NumNodes of all-undefined = %d, want 0", n)
	}
}
