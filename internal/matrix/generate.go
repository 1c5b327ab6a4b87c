package matrix

import "anybc/internal/tile"

// elementKey is the hash input of global element (i, j) under tile.Uniform
// (splitmix64, mapped to [-1, 1)), so distributed nodes can materialize
// their tiles without any shared state. It is consecutive along a row, so a
// row of elements is one key and a counter.
func elementKey(seed int64, i, j int) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0x1000003 + uint64(j)
}

// ElementAt returns a deterministic pseudo-random value in [-1, 1) for global
// element (i, j) under the given seed.
func ElementAt(seed int64, i, j int) float64 {
	return tile.Uniform(elementKey(seed, i, j))
}

// fillRow sets row[c] = ElementAt(seed, i, j+c).
func fillRow(row []float64, seed int64, i, j int) {
	tile.FillUniform(row, elementKey(seed, i, j))
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

// fillRandom fills the b×b tile t with ElementAt over tile (ti, tj), a row
// at a time.
func fillRandom(t *tile.Tile, seed int64, ti, tj int) {
	b := t.Rows
	for r := 0; r < b; r++ {
		fillRow(t.Row(r), seed, ti*b+r, tj*b)
	}
}

// DiagDominantTile fills the b×b tile t with tile (ti, tj) of the matrix
// DiagDominantAt defines, element for element the same values. Every element
// is written, so t may come in holding anything.
func DiagDominantTile(t *tile.Tile, seed int64, m, ti, tj int) {
	fillRandom(t, seed, ti, tj)
	if ti == tj {
		for r := 0; r < t.Rows; r++ {
			t.Set(r, r, dominantDiag(m, t.At(r, r)))
		}
	}
}

// SPDTile is DiagDominantTile for the matrix SPDAt defines. A diagonal tile
// is full, its upper part the mirror of the lower; a tile above the diagonal
// is the transpose of the one below, filled a column at a time from that
// tile's rows.
func SPDTile(t *tile.Tile, seed int64, m, ti, tj int) {
	b := t.Rows
	switch {
	case ti > tj:
		fillRandom(t, seed, ti, tj)
	case ti == tj:
		for r := 0; r < b; r++ {
			row := t.Row(r)
			fillRow(row[:r+1], seed, ti*b+r, tj*b)
			row[r] = dominantDiag(m, row[r])
			for c := 0; c < r; c++ {
				t.Set(c, r, row[c])
			}
		}
	default:
		for c := 0; c < b; c++ {
			key := elementKey(seed, tj*b+c, ti*b)
			for r := 0; r < b; r++ {
				t.Set(r, c, tile.Uniform(key+uint64(r)))
			}
		}
	}
}

// NewDiagDominant builds an mt×mt tiled diagonally dominant matrix with b×b
// tiles, suitable for unpivoted LU factorization.
func NewDiagDominant(mt, b int, seed int64) *Dense {
	tiles := make([]*tile.Tile, 0, mt*mt)
	for i := 0; i < mt; i++ {
		for j := 0; j < mt; j++ {
			t := tile.New(b, b)
			DiagDominantTile(t, seed, mt*b, i, j)
			tiles = append(tiles, t)
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
			t := tile.New(b, b)
			SPDTile(t, seed, mt*b, i, j)
			tiles = append(tiles, t)
		}
	}
	return SymmetricLowerFromTiles(mt, b, tiles)
}
