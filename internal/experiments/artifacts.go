package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"anybc/internal/gcrm"
)

// Artifact is one committed file of results/: the function that renders it
// whole, with the fixed configuration the file records, and the part of it
// tier-1 (TestCommittedFiguresRegenerate and
// TestCommittedPatternArtifactsRegenerate) recomputes.
type Artifact struct {
	// File is the file's name under results/.
	File string
	// Render writes the whole file.
	Render func(w io.Writer) error
	// Sample writes what tier-1 recomputes. With a nil Keep it is the whole
	// file, compared byte for byte; otherwise its rows that Keep selects must
	// equal the committed file's rows that Keep selects (a row is one line
	// split into fields). A nil Sample leaves the file to a full
	// regeneration (simfact -regen).
	Sample func(w io.Writer) error
	Keep   func(row []string) bool
	// Cost is what the Sample takes on a 2-vCPU box, or why there is none.
	Cost string
}

// Artifacts lists every file of results/, in the order of the paper's
// evaluation followed by the two checks beyond it.
var Artifacts = []Artifact{
	whole("table1.txt", "< 10 ms", func(w io.Writer) error {
		fmt.Fprintln(w, "Table Ia — LU factorization")
		RenderTableIa(w, TableIa(TableIaPs))
		fmt.Fprintln(w, "\nTable Ib — Cholesky factorization")
		rows, err := TableIb(TableIbPs, gcrm.DefaultSearchOptions())
		if err != nil {
			return err
		}
		RenderTableIb(w, rows)
		return nil
	}),
	sweepArtifact("fig1.txt", "Figure 1: LU, 2DBC grid shapes (P<=23)", "≈ 0.6 s", DefaultSimConfig(), Figure1),
	whole("fig4.txt", "< 10 ms", func(w io.Writer) error {
		RenderCost(w, "Figure 4: total cost T, P=1..64", Figure4(64))
		return nil
	}),
	sweepArtifact("fig5.txt", fig5Title, "≈ 0.3 s", DefaultSimConfig(), Figure5),
	sweepArtifact("fig5_paper.txt", fig5Title, "≈ 0.3 s", PaperSimConfig(), Figure5),
	sweepArtifact("fig6.txt", "Figure 6: LU, P=39 (G-2DBC vs 2DBC)", "≈ 0.3 s", DefaultSimConfig(), Figure6),
	scalingArtifact("fig7a.txt", fig7aTitle, "≈ 1.2 s", DefaultSimConfig(), Figure7a, []int{23}),
	scalingArtifact("fig7a_paper.txt", fig7aTitle,
		"no subset: each N = 200 000 point simulates ≈ 21 million tasks; the file takes 1–3 min",
		PaperSimConfig(), Figure7a, nil),
	scalingArtifact("fig7b.txt", "Figure 7b: Cholesky strong scaling", "≈ 0.8 s", DefaultSimConfig(), Figure7b, []int{23}),
	whole("fig9.txt", "≈ 1.6 s", func(w io.Writer) error {
		best, all, err := Figure9(23, gcrm.DefaultSearchOptions())
		if err != nil {
			return err
		}
		RenderCandidates(w, 23, best, all)
		return nil
	}),
	whole("fig10.txt", "< 10 ms", func(w io.Writer) error {
		pts, err := Figure10(64, gcrm.DefaultSearchOptions())
		if err != nil {
			return err
		}
		RenderCost(w, "Figure 10: symmetric cost T, P=2..64", pts)
		return nil
	}),
	sweepArtifact("fig11.txt", "Figure 11: Cholesky, P=31 (GCR&M vs SBC)", "≈ 0.3 s", DefaultSimConfig(), Figure11),
	sweepArtifact("fig12.txt", "Figure 12: Cholesky, P=35 (GCR&M vs SBC)", "≈ 0.5 s", DefaultSimConfig(), Figure12),
	whole("verify.txt", "≈ 0.1 s", func(w io.Writer) error {
		const mt = 30
		rows, err := CommValidation(mt, 4)
		if err != nil {
			return err
		}
		RenderValidation(w, mt, rows)
		return nil
	}),
	{
		File:   "replication.txt",
		Render: renderReplication(func(int, int) bool { return true }),
		Sample: renderReplication(replicationSampled),
		Keep: func(row []string) bool {
			if len(row) < 2 {
				return false
			}
			p, errP := strconv.Atoi(row[0])
			mt, errMT := strconv.Atoi(row[1])
			return errP == nil && errMT == nil && replicationSampled(p, mt)
		},
		Cost: "≈ 0.6 s",
	},
}

const (
	fig5Title  = "Figure 5: LU, P=23 (G-2DBC vs 2DBC)"
	fig7aTitle = "Figure 7a: LU strong scaling"
)

// whole is a row tier-1 recomputes in full.
func whole(file, cost string, render func(io.Writer) error) Artifact {
	return Artifact{File: file, Render: render, Sample: render, Cost: cost}
}

// sweepArtifact is a per-N performance figure under cfg; tier-1 recomputes
// its rows of N ≤ 50 000 (the larger rows are the same code on more tasks).
func sweepArtifact(file, title, cost string, cfg SimConfig, gen func(SimConfig) ([]PerfPoint, error)) Artifact {
	const maxN = 50000
	small := cfg
	small.Ns = nil
	for _, n := range cfg.Ns {
		if n <= maxN {
			small.Ns = append(small.Ns, n)
		}
	}
	return Artifact{
		File:   file,
		Render: perf(title, cfg, gen),
		Sample: perf(title, small, gen),
		Keep: func(row []string) bool {
			n, err := strconv.Atoi(row[0])
			return err == nil && n <= maxN
		},
		Cost: cost,
	}
}

// scalingArtifact is a strong-scaling figure over ScalingPs under cfg;
// tier-1 recomputes its rows of the node counts in sample.
func scalingArtifact(file, title, cost string, cfg SimConfig, gen func(SimConfig, []int) ([]PerfPoint, error), sample []int) Artifact {
	over := func(ps []int) func(SimConfig) ([]PerfPoint, error) {
		return func(c SimConfig) ([]PerfPoint, error) { return gen(c, ps) }
	}
	a := Artifact{File: file, Render: perf(title, cfg, over(ScalingPs)), Cost: cost}
	if sample != nil {
		a.Sample = perf(title, cfg, over(sample))
		a.Keep = func(row []string) bool {
			if len(row) < 3 {
				return false
			}
			p, err := strconv.Atoi(row[2])
			return err == nil && slices.Contains(sample, p)
		}
	}
	return a
}

// perf renders the performance figure gen makes under cfg.
func perf(title string, cfg SimConfig, gen func(SimConfig) ([]PerfPoint, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		pts, err := gen(cfg)
		if err != nil {
			return err
		}
		RenderPerf(w, title, pts)
		return nil
	}
}
