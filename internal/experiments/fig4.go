package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"press/internal/stats"
	"press/internal/trace"
)

// Fig4Options parameterizes the Figure 4 reproduction.
type Fig4Options struct {
	// Placements is the number of random PRESS element placements
	// (the paper's (a)–(h): 8).
	Placements int
	// Trials is the sweep repetition count (the paper uses 10).
	Trials int
	// BaseSeed offsets the per-placement seeds.
	BaseSeed uint64
}

// DefaultFig4 matches the paper: 8 placements × 10 trials × 64 configs.
func DefaultFig4() Fig4Options {
	return Fig4Options{Placements: 8, Trials: 10, BaseSeed: 438}
}

// Fig4Placement is one panel of Figure 4: the two configurations with
// the largest single-subcarrier SNR difference at one element placement.
type Fig4Placement struct {
	Label string
	// ConfigA/B are the paper-notation names of the chosen pair.
	ConfigA, ConfigB string
	// SNRA/B are their mean per-subcarrier SNR curves (dB) across trials.
	SNRA, SNRB []float64
	// MaxMeanDiffDB is the largest per-subcarrier difference between the
	// two mean curves.
	MaxMeanDiffDB float64
	// MaxSingleDiffDB is the largest per-subcarrier difference observed
	// within any single trial, across all config pairs.
	MaxSingleDiffDB float64
}

// Fig4Result aggregates all placements plus the paper's two headline
// numbers: "the largest change in the mean SNR on any given subcarrier is
// 18.6 dB, and the largest change in the SNR within one experimental
// repetition is 26 dB".
type Fig4Result struct {
	Placements []Fig4Placement
	// LargestMeanChangeDB is max over placements of MaxMeanDiffDB.
	LargestMeanChangeDB float64
	// LargestSingleChangeDB is max over placements of MaxSingleDiffDB.
	LargestSingleChangeDB float64
}

// RunFig4 reproduces Figure 4: for each random placement, sweep all 64
// configurations Trials times, average per-config SNR curves, and select
// the pair of configurations with the largest single-subcarrier SNR
// difference.
func RunFig4(opts Fig4Options) (*Fig4Result, error) {
	if opts.Placements < 1 || opts.Trials < 1 {
		return nil, fmt.Errorf("experiments: fig4 needs ≥1 placement and trial")
	}
	res := &Fig4Result{}
	for p := 0; p < opts.Placements; p++ {
		link, err := DefaultSISO(opts.BaseSeed + uint64(p)).Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %d: %w", p, err)
		}
		rec, err := measure(link, opts.Trials)
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %d: %w", p, err)
		}
		pl, err := fig4Analysis(rec)
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %d: %w", p, err)
		}
		pl.Label = fmt.Sprintf("(%c)", 'a'+p%26)
		res.Placements = append(res.Placements, pl)
		res.LargestMeanChangeDB = math.Max(res.LargestMeanChangeDB, pl.MaxMeanDiffDB)
		res.LargestSingleChangeDB = math.Max(res.LargestSingleChangeDB, pl.MaxSingleDiffDB)
	}
	return res, nil
}

// fig4Analysis reduces one placement's recorded sweep to its Figure 4
// panel (without its label): the pair of configurations whose mean
// curves differ most on one subcarrier, and the largest such difference
// between any pair within one trial.
func fig4Analysis(rec *trace.Record) (Fig4Placement, error) {
	names, mean := meanCurves(rec)
	i, j, meanDiff, ok := stats.LargestPairDifference(mean)
	if !ok {
		return Fig4Placement{}, errors.New("no config pair")
	}
	var single float64
	for ti := range rec.Trials {
		if _, _, d, ok := stats.LargestPairDifference(measuredCurves(rec, ti)); ok && d > single {
			single = d
		}
	}
	return Fig4Placement{
		ConfigA:         names[i],
		ConfigB:         names[j],
		SNRA:            mean[i],
		SNRB:            mean[j],
		MaxMeanDiffDB:   meanDiff,
		MaxSingleDiffDB: single,
	}, nil
}

// Print renders the figure as paper-style series: per placement, the two
// chosen configurations and their per-subcarrier SNR columns.
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: per-subcarrier SNR, two configurations with the largest single-subcarrier difference\n")
	for _, pl := range r.Placements {
		fmt.Fprintf(w, "\nPlacement %s: %s vs %s  (max mean diff %.1f dB, max single-trial diff %.1f dB)\n",
			pl.Label, pl.ConfigA, pl.ConfigB, pl.MaxMeanDiffDB, pl.MaxSingleDiffDB)
		fmt.Fprintf(w, "%-10s  %-12s  %-12s\n", "subcarrier", pl.ConfigA, pl.ConfigB)
		for k := range pl.SNRA {
			fmt.Fprintf(w, "%-10d  %-12.2f  %-12.2f\n", k, pl.SNRA[k], pl.SNRB[k])
		}
	}
	fmt.Fprintf(w, "\nHeadline: largest mean-SNR change on any subcarrier = %.1f dB (paper: 18.6 dB)\n", r.LargestMeanChangeDB)
	fmt.Fprintf(w, "Headline: largest single-repetition SNR change      = %.1f dB (paper: 26 dB)\n", r.LargestSingleChangeDB)
}
