package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/runtime"
)

// ValidationRow records one communication-formula check: the tile messages a
// *real* distributed execution sent, the structural owner-computes count,
// and the paper's Equation (1)/(2) prediction.
type ValidationRow struct {
	Kernel     string
	Scheme     string
	Nodes      int
	Measured   int64
	Structural int64
	Predicted  float64
}

// Ratio returns measured/predicted.
func (r ValidationRow) Ratio() float64 {
	if r.Predicted == 0 {
		return 1
	}
	return float64(r.Measured) / r.Predicted
}

// CommValidation factorizes real matrices on the virtual cluster under a set
// of distributions and compares the measured communication against the
// structural count (must match exactly) and the paper's formulas (upper
// estimates ignoring trailing-matrix shrinking). mt controls the matrix size
// in tiles; tiles are small because only message counts matter here.
func CommValidation(mt, b int) ([]ValidationRow, error) {
	if mt < 1 {
		return nil, fmt.Errorf("experiments: mt = %d tiles, want at least 1", mt)
	}
	var rows []ValidationRow

	gLU := dag.NewLU(mt)
	for _, d := range []dist.Distribution{dist.Best2DBC(6), dist.NewG2DBC(10), dist.NewG2DBC(23)} {
		pd := d.(dist.PatternDistribution)
		_, rep, err := runtime.FactorLU(mt, b, d, runtime.GenDiagDominant(mt, b, 9), runtime.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{
			Kernel:     "LU",
			Scheme:     d.Name(),
			Nodes:      d.Nodes(),
			Measured:   rep.Stats.TotalMessages(),
			Structural: dag.CommVolumeTiles(gLU, d.Owner),
			Predicted:  pd.Pattern().CommVolumeLU(mt),
		})
	}

	gCh := dag.NewCholesky(mt)
	gcrmD, err := core.New(core.GCRM, 10, core.Options{})
	if err != nil {
		return nil, err
	}
	chDists := []dist.Distribution{
		dist.NewSBCPair(5), // P = 10
		gcrmD,
		dist.NewSTS(9), // P = 12
	}
	for _, d := range chDists {
		pd := d.(dist.PatternDistribution)
		_, rep, err := runtime.FactorCholesky(mt, b, d, runtime.GenSPD(mt, b, 9), runtime.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{
			Kernel:     "Cholesky",
			Scheme:     d.Name(),
			Nodes:      d.Nodes(),
			Measured:   rep.Stats.TotalMessages(),
			Structural: dag.CommVolumeTiles(gCh, d.Owner),
			Predicted:  pd.Pattern().CommVolumeCholesky(mt),
		})
	}
	return rows, nil
}

// RenderValidation prints the validation of an mt×mt tile matrix: a title,
// the table and what it must show.
func RenderValidation(w io.Writer, mt int, rows []ValidationRow) {
	fmt.Fprintf(w, "Communication validation on a %dx%d tile matrix (real execution):\n", mt, mt)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kernel\tscheme\tP\tmeasured\tstructural\tEq. prediction\tmeasured/pred\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.0f\t%.2f\t\n",
			r.Kernel, r.Scheme, r.Nodes, r.Measured, r.Structural, r.Predicted, r.Ratio())
	}
	tw.Flush()
	fmt.Fprintln(w, "\n'measured' counts actual tile messages; it must equal the structural")
	fmt.Fprintln(w, "owner-computes count and approach the Eq. (1)/(2) predictions from below.")
}
