package matrix

import "anybc/internal/tile"

// splitmix64 is a tiny, high-quality mixing function; the generators below
// use it to derive element values from (seed, i, j) without any shared state,
// so distributed nodes can materialize their tiles independently.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [-1, 1).
func unit(h uint64) float64 { return float64(h>>11)/float64(1<<53)*2 - 1 }

// elementKey is the hash input of global element (i, j): consecutive along a
// row, so a row of elements is one key and a counter.
func elementKey(seed int64, i, j int) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0x1000003 + uint64(j)
}

// ElementAt returns a deterministic pseudo-random value in [-1, 1) for global
// element (i, j) under the given seed.
func ElementAt(seed int64, i, j int) float64 {
	return unit(splitmix64(elementKey(seed, i, j)))
}

// fillRow sets row[c] = ElementAt(seed, i, j+c).
func fillRow(row []float64, seed int64, i, j int) {
	key := elementKey(seed, i, j)
	for c := range row {
		row[c] = unit(splitmix64(key + uint64(c)))
	}
}

// dominantDiag is the diagonal entry both generators put over the random
// value e: m + 1 + |something in [0, 1)|.
func dominantDiag(m int, e float64) float64 { return float64(m) + 1 + (e+1)/2 }

// DiagDominantAt is the element generator for a non-symmetric diagonally
// dominant matrix of global size m: random off-diagonal entries in [-1, 1)
// and diagonal entries m + 1 + |random|, making unpivoted LU stable.
func DiagDominantAt(seed int64, m, i, j int) float64 {
	if i == j {
		return dominantDiag(m, ElementAt(seed, i, j))
	}
	return ElementAt(seed, i, j)
}

// SPDAt is the element generator for a symmetric positive definite matrix of
// global size m: symmetric random off-diagonals and dominant positive
// diagonal (strict diagonal dominance with positive diagonal implies SPD).
func SPDAt(seed int64, m, i, j int) float64 {
	if i == j {
		return dominantDiag(m, ElementAt(seed, i, i))
	}
	if i < j {
		i, j = j, i
	}
	return ElementAt(seed, i, j)
}

// randomTile returns a fresh b×b tile holding ElementAt over tile (ti, tj),
// filled a row at a time.
func randomTile(seed int64, b, ti, tj int) *tile.Tile {
	t := tile.New(b, b)
	for r := 0; r < b; r++ {
		fillRow(t.Row(r), seed, ti*b+r, tj*b)
	}
	return t
}

// DiagDominantTile returns a fresh b×b tile (ti, tj) of the matrix
// DiagDominantAt defines, element for element the same values.
func DiagDominantTile(seed int64, m, b, ti, tj int) *tile.Tile {
	t := randomTile(seed, b, ti, tj)
	if ti == tj {
		for r := 0; r < b; r++ {
			t.Set(r, r, dominantDiag(m, t.At(r, r)))
		}
	}
	return t
}

// SPDTile is DiagDominantTile for the matrix SPDAt defines. A diagonal tile
// is full, its upper part the mirror of the lower; a tile above the diagonal
// is the transpose of the one below.
func SPDTile(seed int64, m, b, ti, tj int) *tile.Tile {
	if ti > tj {
		return randomTile(seed, b, ti, tj)
	}
	t := tile.New(b, b)
	if ti == tj {
		for r := 0; r < b; r++ {
			row := t.Row(r)
			fillRow(row[:r+1], seed, ti*b+r, tj*b)
			row[r] = dominantDiag(m, row[r])
			for c := 0; c < r; c++ {
				t.Set(c, r, row[c])
			}
		}
		return t
	}
	below := randomTile(seed, b, tj, ti)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			t.Set(r, c, below.At(c, r))
		}
	}
	return t
}

// NewDiagDominant builds an mt×mt tiled diagonally dominant matrix with b×b
// tiles, suitable for unpivoted LU factorization.
func NewDiagDominant(mt, b int, seed int64) *Dense {
	tiles := make([]*tile.Tile, 0, mt*mt)
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			tiles = append(tiles, DiagDominantTile(seed, mt*b, b, i, j))
		}
	}
	return DenseFromTiles(mt, mt, b, tiles)
}

// NewSPD builds an mt×mt tiled symmetric positive definite matrix (lower
// storage) with b×b tiles, suitable for Cholesky factorization.
func NewSPD(mt, b int, seed int64) *SymmetricLower {
	tiles := make([]*tile.Tile, 0, mt*(mt+1)/2)
	for i := 0; i < mt; i++ {
		for j := 0; j <= i; j++ {
			tiles = append(tiles, SPDTile(seed, mt*b, b, i, j))
		}
	}
	return SymmetricLowerFromTiles(mt, b, tiles)
}
