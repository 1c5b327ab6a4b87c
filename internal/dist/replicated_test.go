package dist

import "testing"

// TestReplicatedOwnerGroupProperty is the replication ownership invariant:
// for every tile, the owner group — the owners of its c layer accumulators —
// holds exactly c distinct nodes, one per layer, all at the same base-grid
// coordinate; the canonical tile lives on one of them; and with c = 1 it
// collapses to the single base owner. Checked over every base node count
// P ∈ 1..64 (G-2DBC) and deliberately non-square 2DBC grids.
func TestReplicatedOwnerGroupProperty(t *testing.T) {
	const mt = 9
	bases := []Distribution{}
	for P := 1; P <= 64; P++ {
		bases = append(bases, NewG2DBC(P))
	}
	for _, grid := range [][2]int{{1, 5}, {2, 7}, {3, 4}, {8, 3}, {16, 1}} {
		bases = append(bases, NewTwoDBC(grid[0], grid[1]))
	}
	for _, base := range bases {
		for _, c := range []int{1, 2, 3, 4} {
			d := NewReplicated(base, c, mt)
			if got, want := d.Nodes(), c*base.Nodes(); got != want {
				t.Fatalf("%s: Nodes = %d, want %d", d.Name(), got, want)
			}
			for i := 0; i < mt; i++ {
				for j := 0; j < mt; j++ {
					grp := make([]int, c)
					for q := range grp {
						grp[q] = d.Owner(i, (1+q)*mt+j)
					}
					seen := map[int]bool{}
					for q, n := range grp {
						if n < 0 || n >= d.Nodes() {
							t.Fatalf("%s: Group(%d,%d)[%d] = %d out of range", d.Name(), i, j, q, n)
						}
						if seen[n] {
							t.Fatalf("%s: Group(%d,%d) repeats node %d", d.Name(), i, j, n)
						}
						seen[n] = true
						if n%base.Nodes() != base.Owner(i, j) {
							t.Fatalf("%s: Group(%d,%d)[%d] = %d not at base coordinate %d",
								d.Name(), i, j, q, n, base.Owner(i, j))
						}
						if n/base.Nodes() != q {
							t.Fatalf("%s: Group(%d,%d)[%d] = %d not on layer %d",
								d.Name(), i, j, q, n, q)
						}
					}
					// The canonical tile's owner is the group member on the
					// layer that runs the tile's panel iteration.
					k := i
					if j < k {
						k = j
					}
					if own := d.Owner(i, j); own != grp[k%c] {
						t.Fatalf("%s: Owner(%d,%d) = %d, want group layer %d = %d",
							d.Name(), i, j, own, k%c, grp[k%c])
					}
					if c == 1 && d.Owner(i, j) != base.Owner(i, j) {
						t.Fatalf("%s: c=1 Owner(%d,%d) = %d differs from base %d",
							d.Name(), i, j, d.Owner(i, j), base.Owner(i, j))
					}
				}
			}
		}
	}
}
