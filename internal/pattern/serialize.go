package pattern

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Marshal writes the pattern in a simple line-oriented text format:
//
//	rows cols
//	<row 0 cells separated by spaces, "." for Undefined>
//	...
//
// The format is stable: each entry of the GCR&M pattern database that
// cmd/patterndb writes and internal/core embeds is one such block.
func (p *Pattern) Marshal(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", p.rows, p.cols); err != nil {
		return err
	}
	for i := 0; i < p.rows; i++ {
		for j := 0; j < p.cols; j++ {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			v := p.At(i, j)
			if v == Undefined {
				if err := bw.WriteByte('.'); err != nil {
					return err
				}
			} else if _, err := bw.WriteString(strconv.Itoa(v)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Unmarshal reads one pattern in the Marshal format from sc and leaves sc on
// its last row, so a stream of patterns reads as successive calls.
func Unmarshal(sc *bufio.Scanner) (*Pattern, error) {
	if !sc.Scan() {
		return nil, fmt.Errorf("pattern: missing header: %w", sc.Err())
	}
	var rows, cols int
	if _, err := fmt.Sscanf(sc.Text(), "%d %d", &rows, &cols); err != nil {
		return nil, fmt.Errorf("pattern: bad header %q: %w", sc.Text(), err)
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("pattern: bad dimensions %dx%d", rows, cols)
	}
	p := New(rows, cols)
	for i := 0; i < rows; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("pattern: missing row %d: %w", i, sc.Err())
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != cols {
			return nil, fmt.Errorf("pattern: row %d has %d cells, want %d", i, len(fields), cols)
		}
		for j, f := range fields {
			if f == "." {
				p.Set(i, j, Undefined)
				continue
			}
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("pattern: row %d cell %d: %w", i, j, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("pattern: row %d cell %d: negative node %d", i, j, v)
			}
			p.Set(i, j, int(v))
		}
	}
	return p, nil
}
