// Package matrix provides tiled dense and symmetric matrices: the data
// structures the factorizations run on. A matrix is an mt×nt grid of b×b
// tiles; symmetric matrices store only the lower-triangular tiles, exactly as
// the paper's Cholesky experiments keep only half of A.
//
// Element generators are pure functions of (seed, i, j), so every node of the
// virtual cluster can materialize its own tiles without communication — the
// same trick Chameleon's dplrnt/dplgsy generators use.
package matrix

import (
	"fmt"

	"anybc/internal/tile"
)

// Dense is an mt×nt tiled matrix of b×b tiles.
type Dense struct {
	MT, NT, B int
	tiles     []*tile.Tile
}

// NewDense allocates an mt×nt tile matrix with b×b zero tiles.
func NewDense(mt, nt, b int) *Dense {
	if mt <= 0 || nt <= 0 || b <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape mt=%d nt=%d b=%d", mt, nt, b))
	}
	d := &Dense{MT: mt, NT: nt, B: b, tiles: make([]*tile.Tile, mt*nt)}
	for i := range d.tiles {
		d.tiles[i] = tile.New(b, b)
	}
	return d
}

// DenseFromTiles builds the mt×nt matrix of the given b×b tiles, listed row
// by row — (0,0), (0,1), … — without copying them: the matrix adopts the
// tiles and the slice, which the caller gives up. A missing, nil or
// mis-shaped tile is a bug in the caller and panics, naming the tile.
func DenseFromTiles(mt, nt, b int, tiles []*tile.Tile) *Dense {
	if mt <= 0 || nt <= 0 || b <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape mt=%d nt=%d b=%d", mt, nt, b))
	}
	if len(tiles) != mt*nt {
		panic(fmt.Sprintf("matrix: %d tiles given for an %d×%d tile matrix", len(tiles), mt, nt))
	}
	for k, t := range tiles {
		checkAdopted(t, b, k/nt, k%nt)
	}
	return &Dense{MT: mt, NT: nt, B: b, tiles: tiles}
}

// checkAdopted panics unless t can serve as b×b tile (i, j) of an adopted
// matrix.
func checkAdopted(t *tile.Tile, b, i, j int) {
	switch {
	case t == nil:
		panic(fmt.Sprintf("matrix: tile (%d,%d) is nil", i, j))
	case t.Rows != b || t.Cols != b || len(t.Data) != b*b:
		panic(fmt.Sprintf("matrix: tile (%d,%d) is %d×%d over %d elements, want %d×%d", i, j, t.Rows, t.Cols, len(t.Data), b, b))
	}
}

// Tile returns tile (i, j) (0-based tile coordinates).
func (d *Dense) Tile(i, j int) *tile.Tile {
	return d.tiles[i*d.NT+j]
}

// SetTile replaces tile (i, j).
func (d *Dense) SetTile(i, j int, t *tile.Tile) {
	if t.Rows != d.B || t.Cols != d.B {
		panic("matrix: tile shape mismatch")
	}
	d.tiles[i*d.NT+j] = t
}

// Rows and Cols return the global element dimensions.
func (d *Dense) Rows() int { return d.MT * d.B }

// Cols returns the number of element columns.
func (d *Dense) Cols() int { return d.NT * d.B }

// At returns global element (gi, gj).
func (d *Dense) At(gi, gj int) float64 {
	return d.Tile(gi/d.B, gj/d.B).At(gi%d.B, gj%d.B)
}

// Set stores global element (gi, gj).
func (d *Dense) Set(gi, gj int, v float64) {
	d.Tile(gi/d.B, gj/d.B).Set(gi%d.B, gj%d.B, v)
}

// FrobeniusNorm returns the Frobenius norm over all elements.
func (d *Dense) FrobeniusNorm() float64 { return tile.FrobeniusNorm(d.tiles...) }

// SymmetricLower is an mt×mt tiled symmetric matrix storing only tiles
// (i, j) with i ≥ j. Element reads above the diagonal are mirrored.
type SymmetricLower struct {
	MT, B int
	tiles []*tile.Tile // packed lower triangle, index i(i+1)/2 + j
}

// NewSymmetricLower allocates an mt×mt symmetric tile matrix.
func NewSymmetricLower(mt, b int) *SymmetricLower {
	if mt <= 0 || b <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape mt=%d b=%d", mt, b))
	}
	s := &SymmetricLower{MT: mt, B: b, tiles: make([]*tile.Tile, mt*(mt+1)/2)}
	for i := range s.tiles {
		s.tiles[i] = tile.New(b, b)
	}
	return s
}

// SymmetricLowerFromTiles is DenseFromTiles for the lower-stored symmetric
// mt×mt matrix: the tiles (i, j), i ≥ j, listed row by row — (0,0), (1,0),
// (1,1), (2,0), … — are adopted, not copied.
func SymmetricLowerFromTiles(mt, b int, tiles []*tile.Tile) *SymmetricLower {
	if mt <= 0 || b <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape mt=%d b=%d", mt, b))
	}
	if len(tiles) != mt*(mt+1)/2 {
		panic(fmt.Sprintf("matrix: %d tiles given for the lower triangle of an %d×%d tile matrix", len(tiles), mt, mt))
	}
	k := 0
	for i := 0; i < mt; i++ {
		for j := 0; j <= i; j++ {
			checkAdopted(tiles[k], b, i, j)
			k++
		}
	}
	return &SymmetricLower{MT: mt, B: b, tiles: tiles}
}

// Tile returns stored tile (i, j), requiring i ≥ j.
func (s *SymmetricLower) Tile(i, j int) *tile.Tile {
	if i < j {
		panic(fmt.Sprintf("matrix: tile (%d,%d) is above the diagonal", i, j))
	}
	return s.tiles[i*(i+1)/2+j]
}

// Rows returns the global element dimension.
func (s *SymmetricLower) Rows() int { return s.MT * s.B }

// FrobeniusNorm returns the Frobenius norm over the stored lower-triangle
// elements (the factor L's norm, not the mirrored full matrix's).
func (s *SymmetricLower) FrobeniusNorm() float64 { return tile.FrobeniusNorm(s.tiles...) }

// At returns global element (gi, gj), mirroring the upper triangle.
func (s *SymmetricLower) At(gi, gj int) float64 {
	if gi < gj {
		gi, gj = gj, gi
	}
	ti, tj := gi/s.B, gj/s.B
	return s.Tile(ti, tj).At(gi%s.B, gj%s.B)
}

// Set stores global element (gi, gj) in the lower triangle.
func (s *SymmetricLower) Set(gi, gj int, v float64) {
	if gi < gj {
		gi, gj = gj, gi
	}
	s.Tile(gi/s.B, gj/s.B).Set(gi%s.B, gj%s.B, v)
}
