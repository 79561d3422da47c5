package experiments

import (
	"fmt"
	"io"

	"press/internal/stats"
	"press/internal/trace"
)

// Fig5Options parameterizes the Figure 5 reproduction (null movement).
type Fig5Options struct {
	// Seed selects the element placement; the paper investigates
	// placement (e) of Figure 4.
	Seed uint64
	// Trials is the number of experimental repetitions (one CCDF curve
	// each; the paper plots 10).
	Trials int
}

// DefaultFig5 matches the paper: placement (e) — seed index 4 of the
// Figure 4 run (BaseSeed 438 + 4) — 10 trials. Nulls qualify at the
// paper's 5 dB (stats.DefaultNullDepthDB).
func DefaultFig5() Fig5Options { return Fig5Options{Seed: placementE, Trials: 10} }

// Fig5Result holds one null-movement CCDF per trial plus summary stats.
type Fig5Result struct {
	// PerTrial holds the null-movement distribution of each repetition,
	// over all 64² ordered config pairs with qualifying nulls.
	PerTrial []*stats.ECDF
	// MaxMovement is the largest null movement (subcarriers) seen in any
	// trial; the paper's abstract headline is 9.
	MaxMovement int
	// FracBeyond3 is the pooled fraction of pairs moving the null by
	// more than 3 subcarriers ("a few show changes of over three
	// subcarriers (1 MHz)").
	FracBeyond3 float64
}

// RunFig5 reproduces Figure 5: the complementary CDF of the change in
// null location between pairs of PRESS element configurations, one curve
// per experimental repetition.
func RunFig5(opts Fig5Options) (*Fig5Result, error) {
	if opts.Trials < 1 {
		return nil, fmt.Errorf("experiments: fig5 needs ≥1 trial")
	}
	link, err := DefaultSISO(opts.Seed).Build()
	if err != nil {
		return nil, err
	}
	rec, err := measure(link, opts.Trials)
	if err != nil {
		return nil, err
	}
	return fig5Analysis(rec), nil
}

// fig5Analysis reduces a recorded sweep to Figure 5: per trial, the null
// movement between every ordered pair of measured configurations.
func fig5Analysis(rec *trace.Record) *Fig5Result {
	res := &Fig5Result{}
	var pooled []float64
	for ti := range rec.Trials {
		moves := stats.PairwiseNullMovements(measuredCurves(rec, ti), stats.DefaultNullDepthDB)
		res.PerTrial = append(res.PerTrial, stats.NewECDF(moves))
		pooled = append(pooled, moves...)
	}
	for _, m := range pooled {
		res.MaxMovement = max(res.MaxMovement, int(m))
	}
	res.FracBeyond3 = fraction(pooled, func(m float64) bool { return m > 3 })
	return res
}

// fraction returns the share of xs for which keep holds (0 for no xs).
func fraction(xs []float64, keep func(float64) bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if keep(x) {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Print renders the per-trial CCDF curves as columns.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: CCDF of null movement (subcarriers) between config pairs, one curve per trial\n")
	fmt.Fprintf(w, "%-9s", "movement")
	for t := range r.PerTrial {
		fmt.Fprintf(w, "  trial%-3d", t)
	}
	fmt.Fprintln(w)
	for m := 0; m <= r.MaxMovement; m++ {
		fmt.Fprintf(w, "%-9d", m)
		for _, e := range r.PerTrial {
			fmt.Fprintf(w, "  %-8.4f", e.CCDF(float64(m)-0.5)) // P(move ≥ m)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nHeadline: max null movement = %d subcarriers (paper: ≈9)\n", r.MaxMovement)
	fmt.Fprintf(w, "Headline: fraction of pairs moving >3 subcarriers = %.3f (paper: \"a few\")\n", r.FracBeyond3)
}

// Fig6Options parameterizes the Figure 6 reproduction (min-SNR change and
// min-SNR distributions).
type Fig6Options struct {
	Seed   uint64
	Trials int
}

// DefaultFig6 matches the paper: placement (e), 10 trials.
func DefaultFig6() Fig6Options { return Fig6Options{Seed: placementE, Trials: 10} }

// Fig6Result holds the two panels of Figure 6 and the paper's in-text
// statistics.
type Fig6Result struct {
	// DeltaMin is the pooled CCDF of |Δ min-subcarrier SNR| across all
	// ordered config pairs and trials (left panel).
	DeltaMin *stats.ECDF
	// PerTrialMin holds, per trial, the CCDF of min-subcarrier SNR over
	// the 64 configurations (right panel: "each trace is one of the 10
	// trials").
	PerTrialMin []*stats.ECDF
	// FracChangeGE10 is the fraction of configuration changes causing a
	// ≥10 dB change in minimum SNR (paper: "around 38%").
	FracChangeGE10 float64
	// FracMinBelow20 is the fraction of configurations whose worst
	// subcarrier sits below 20 dB (paper: "less than 9%").
	FracMinBelow20 float64
}

// RunFig6 reproduces Figure 6 from the same placement-(e) sweep.
func RunFig6(opts Fig6Options) (*Fig6Result, error) {
	if opts.Trials < 1 {
		return nil, fmt.Errorf("experiments: fig6 needs ≥1 trial")
	}
	link, err := DefaultSISO(opts.Seed).Build()
	if err != nil {
		return nil, err
	}
	rec, err := measure(link, opts.Trials)
	if err != nil {
		return nil, err
	}
	return fig6Analysis(rec), nil
}

// fig6Analysis reduces a recorded sweep to Figure 6: the change in
// minimum SNR between every ordered pair of measured configurations,
// pooled over trials, and each trial's minimum-SNR distribution.
func fig6Analysis(rec *trace.Record) *Fig6Result {
	res := &Fig6Result{}
	var deltas, mins []float64
	for ti := range rec.Trials {
		curves := measuredCurves(rec, ti)
		deltas = append(deltas, stats.PairwiseMinSNRChanges(curves)...)
		trialMins := stats.MinPerCurve(curves)
		res.PerTrialMin = append(res.PerTrialMin, stats.NewECDF(trialMins))
		mins = append(mins, trialMins...)
	}
	res.DeltaMin = stats.NewECDF(deltas)
	res.FracChangeGE10 = fraction(deltas, func(d float64) bool { return d >= 10 })
	res.FracMinBelow20 = fraction(mins, func(m float64) bool { return m < 20 })
	return res
}

// Print renders both panels.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 left: CCDF of |change in min subcarrier SNR| between config pairs\n")
	fmt.Fprintf(w, "%-12s  %-8s\n", "change (dB)", "CCDF")
	for _, x := range []float64{0, 2, 4, 6, 8, 10, 14, 18, 22, 26, 30} {
		fmt.Fprintf(w, "%-12.0f  %-8.4f\n", x, r.DeltaMin.CCDF(x))
	}
	fmt.Fprintf(w, "\nFigure 6 right: CCDF of min subcarrier SNR across the 64 configs, per trial\n")
	fmt.Fprintf(w, "%-9s", "snr (dB)")
	for t := range r.PerTrialMin {
		fmt.Fprintf(w, "  trial%-3d", t)
	}
	fmt.Fprintln(w)
	for _, x := range []float64{8, 12, 16, 20, 24, 28, 32, 36} {
		fmt.Fprintf(w, "%-9.0f", x)
		for _, e := range r.PerTrialMin {
			fmt.Fprintf(w, "  %-8.4f", e.CCDF(x))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nHeadline: fraction of config changes with ≥10 dB min-SNR change = %.3f (paper: ≈0.38)\n", r.FracChangeGE10)
	fmt.Fprintf(w, "Headline: fraction of configs with worst subcarrier below 20 dB = %.3f (paper: <0.09)\n", r.FracMinBelow20)
}
