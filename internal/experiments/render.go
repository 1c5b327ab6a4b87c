package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"anybc/internal/gcrm"
)

// RenderTableIa prints Table Ia in the paper's layout.
func RenderTableIa(w io.Writer, rows []TableIaRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "P\t2DBC dim.\t2DBC T\tG-2DBC dim.\tG-2DBC T\t")
	for _, r := range rows {
		g2dims, g2cost := r.G2DBCDims, fmt.Sprintf("%.3f", r.G2DBCCost)
		if r.Degenerate {
			// As in the paper, identical (degenerate) entries are left blank.
			g2dims, g2cost = "", ""
		}
		fmt.Fprintf(tw, "%d\t%s\t%.0f\t%s\t%s\t\n", r.P, r.DBCDims, r.DBCCost, g2dims, g2cost)
	}
	tw.Flush()
}

// RenderTableIb prints Table Ib in the paper's layout.
func RenderTableIb(w io.Writer, rows []TableIbRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "P\tSBC nodes\tSBC dim.\tSBC T\tGCR&M dim.\tGCR&M T\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%s\t%.0f\t%s\t%.3f\t\n",
			r.P, r.SBCNodes, r.SBCDims, r.SBCCost, r.GCRMDims, r.GCRMCost)
	}
	tw.Flush()
}

// RenderPerf prints performance points grouped by matrix size, as the
// paper's performance plots tabulate them.
func RenderPerf(w io.Writer, title string, pts []PerfPoint) {
	fmt.Fprintf(w, "== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "N\tdistribution\tP\tGFlop/s\tGFlop/s/node\tmessages\tmakespan(s)\t")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.0f\t%.1f\t%d\t%.3f\t\n",
			p.N, p.Series, p.P, p.GFlops, p.PerNode, p.Messages, p.Makespan)
	}
	tw.Flush()
}

// RenderCost prints cost points grouped by series.
func RenderCost(w io.Writer, title string, pts []CostPoint) {
	fmt.Fprintf(w, "== %s ==\n", title)
	series := map[string][]CostPoint{}
	var names []string
	for _, p := range pts {
		if _, ok := series[p.Series]; !ok {
			names = append(names, p.Series)
		}
		series[p.Series] = append(series[p.Series], p)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "series\tP\tT\t")
	for _, name := range names {
		for _, p := range series[name] {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t\n", name, p.P, p.T)
		}
	}
	tw.Flush()
}

// RenderCandidates prints the Figure 9 scatter: cost per pattern size and
// seed for one P.
func RenderCandidates(w io.Writer, P int, best *gcrm.Result, all []gcrm.Candidate) {
	fmt.Fprintf(w, "== Figure 9: GCR&M candidates for P=%d (best: r=%d cost=%.3f) ==\n",
		P, best.R, best.Cost)
	byR := map[int][]float64{}
	var rs []int
	for _, c := range all {
		if _, ok := byR[c.R]; !ok {
			rs = append(rs, c.R)
		}
		byR[c.R] = append(byR[c.R], c.Cost)
	}
	sort.Ints(rs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "r\tmin T\tmean T\tmax T\tsamples\t")
	for _, r := range rs {
		costs := byR[r]
		min, max, sum := costs[0], costs[0], 0.0
		for _, c := range costs {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
			sum += c
		}
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\t%d\t\n", r, min, sum/float64(len(costs)), max, len(costs))
	}
	tw.Flush()
}
