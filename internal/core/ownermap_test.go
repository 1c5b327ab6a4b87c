package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"anybc/internal/dist"
	"anybc/internal/hetero"
)

// ownerMapDigest hashes what a distribution says about the top-left 64×64
// tiles: its name, its node count and every owner.
func ownerMapDigest(d dist.Distribution) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/", d.Name(), d.Nodes())
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			fmt.Fprintf(h, "%d,", d.Owner(i, j))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSchemeOwnerMaps pins whole owner maps, so that a change to how a scheme
// is built or wrapped cannot move a single tile — or a name — unnoticed.
func TestSchemeOwnerMaps(t *testing.T) {
	must := func(d dist.Distribution, err error) dist.Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		label string
		d     dist.Distribution
		want  string
	}{
		{"NewTwoDBC(5,4)", dist.NewTwoDBC(5, 4), "9a7d0feb421c60ea"},
		{"Best2DBC(23)", dist.Best2DBC(23), "d4b805ec13359548"},
		{"Best2DBCAtMost(23)", dist.Best2DBCAtMost(23), "3e88301bde174b74"},
		{"NewG2DBC(10)", dist.NewG2DBC(10), "f29ef8f11a68d004"},
		{"NewG2DBC(23)", dist.NewG2DBC(23), "0e68e1c3b20c1172"},
		{"NewG2DBC(39)", dist.NewG2DBC(39), "5d08d73385c421d6"},
		{"NewSBCPair(8)", dist.NewSBCPair(8), "cf746dea3dfbbdd6"},
		{"NewSBCEven(8)", dist.NewSBCEven(8), "35a16d5fbd3e1afd"},
		{"BestSBCAtMost(1)", dist.BestSBCAtMost(1), "6ffca5d5d66ff71b"},
		{"BestSBCAtMost(31)", dist.BestSBCAtMost(31), "cf746dea3dfbbdd6"},
		{"BestSBCAtMost(35)", dist.BestSBCAtMost(35), "35a16d5fbd3e1afd"},
		{"NewSTS(15)", dist.NewSTS(15), "a3459beb643e71e1"},
		{"hetero.NewG2DBC(1,1,2,4)", must(hetero.NewG2DBC([]float64{1, 1, 2, 4}, 4)), "45030e9ec36c055e"},
		{"New(GCRM,23)", must(New(GCRM, 23, quickOpts())), "de42f1b402461e50"},
		{"New(GCRM,23,Options{})", must(New(GCRM, 23, Options{})), "d68db2c3aee1f106"},
		{"New(GCRM,64,Options{})", must(New(GCRM, 64, Options{})), "6b46acaab8f5f54c"},
	}
	for _, c := range cases {
		if got := ownerMapDigest(c.d); got != c.want {
			t.Errorf("%s (%s): owner map digest %s, want %s", c.label, c.d.Name(), got, c.want)
		}
	}
}
