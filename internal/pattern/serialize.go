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
// The format is stable and used by cmd/patterndb for the on-disk database.
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

// Unmarshal parses a pattern in the Marshal format.
func Unmarshal(r io.Reader) (*Pattern, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<24)
	if !br.Scan() {
		return nil, fmt.Errorf("pattern: missing header: %w", br.Err())
	}
	var rows, cols int
	if _, err := fmt.Sscanf(br.Text(), "%d %d", &rows, &cols); err != nil {
		return nil, fmt.Errorf("pattern: bad header %q: %w", br.Text(), err)
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("pattern: bad dimensions %dx%d", rows, cols)
	}
	p := New(rows, cols)
	for i := 0; i < rows; i++ {
		if !br.Scan() {
			return nil, fmt.Errorf("pattern: missing row %d: %w", i, br.Err())
		}
		fields := strings.Fields(br.Text())
		if len(fields) != cols {
			return nil, fmt.Errorf("pattern: row %d has %d cells, want %d", i, len(fields), cols)
		}
		for j, f := range fields {
			if f == "." {
				p.Set(i, j, Undefined)
				continue
			}
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("pattern: row %d cell %d: %w", i, j, err)
			}
			p.Set(i, j, v)
		}
	}
	return p, nil
}
