package pattern

import (
	"bufio"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// marshalString returns p in the Marshal format.
func marshalString(p *Pattern) string {
	var b strings.Builder
	if err := p.Marshal(&b); err != nil {
		panic(err)
	}
	return b.String()
}

func unmarshalString(s string) (*Pattern, error) {
	return Unmarshal(bufio.NewScanner(strings.NewReader(s)))
}

func TestMarshalRoundtrip(t *testing.T) {
	p := MustFromRows([][]int{{0, 1, 2}, {3, 4, 5}})
	p.Set(0, 0, 0)
	s := marshalString(p)
	q, err := unmarshalString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("roundtrip mismatch:\n%s\nvs\n%s", p, q)
	}
}

func TestMarshalUndefined(t *testing.T) {
	p := MustFromRows([][]int{{0, 1}, {1, 0}})
	p.Set(0, 0, Undefined)
	s := marshalString(p)
	if !strings.Contains(s, ".") {
		t.Fatalf("marshal of undefined cell missing '.': %q", s)
	}
	q, err := unmarshalString(s)
	if err != nil {
		t.Fatal(err)
	}
	if q.At(0, 0) != Undefined {
		t.Fatal("undefined cell lost in roundtrip")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		"",
		"2\n0 1\n1 0\n",
		"2 2\n0 1\n",
		"2 2\n0 1 2\n1 0\n",
		"2 2\n0 x\n1 0\n",
		"2 2\n0 -2\n1 0\n",
		"0 0\n",
		"-1 2\n",
	}
	for _, s := range bad {
		if _, err := unmarshalString(s); err == nil {
			t.Errorf("Unmarshal(%q): want error", s)
		}
	}
}

func TestMarshalRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(12)
		c := 1 + rng.Intn(12)
		p := New(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				p.Set(i, j, rng.Intn(40))
			}
		}
		if r == c && rng.Intn(2) == 0 {
			for d := 0; d < r; d++ {
				if rng.Intn(2) == 0 {
					p.Set(d, d, Undefined)
				}
			}
		}
		q, err := unmarshalString(marshalString(p))
		return err == nil && reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
