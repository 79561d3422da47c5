package experiments

import (
	"fmt"
	"io"

	"press/internal/radio"
	"press/internal/stats"
)

// Fig5Options parameterizes the Figure 5 reproduction (null movement).
type Fig5Options struct {
	// Seed selects the element placement; the paper investigates
	// placement (e) of Figure 4.
	Seed uint64
	// Trials is the number of experimental repetitions (one CCDF curve
	// each; the paper plots 10).
	Trials int
	// NullDepthDB is the qualification threshold (the paper's 5 dB).
	NullDepthDB float64
}

// DefaultFig5 matches the paper: placement (e) — seed index 4 of the
// Figure 4 run (BaseSeed 438 + 4) — 10 trials, 5 dB null threshold.
func DefaultFig5() Fig5Options {
	return Fig5Options{Seed: placementE, Trials: 10, NullDepthDB: stats.DefaultNullDepthDB}
}

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
	if opts.NullDepthDB == 0 {
		opts.NullDepthDB = stats.DefaultNullDepthDB
	}
	link, err := DefaultSISO(opts.Seed).Build()
	if err != nil {
		return nil, err
	}
	trials, err := link.SweepTrials(radio.PrototypeTiming, opts.Trials)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	var pooledBeyond3, pooledTotal int
	for _, tr := range trials {
		curves := radio.SNRCurves(tr)
		moves := stats.PairwiseNullMovements(curves, opts.NullDepthDB)
		res.PerTrial = append(res.PerTrial, stats.NewECDF(moves))
		for _, m := range moves {
			pooledTotal++
			if m > 3 {
				pooledBeyond3++
			}
			if int(m) > res.MaxMovement {
				res.MaxMovement = int(m)
			}
		}
	}
	if pooledTotal > 0 {
		res.FracBeyond3 = float64(pooledBeyond3) / float64(pooledTotal)
	}
	return res, nil
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
	trials, err := link.SweepTrials(radio.PrototypeTiming, opts.Trials)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	var allDeltas []float64
	var ge10, pairs int
	var below20, cfgs int
	for _, tr := range trials {
		curves := radio.SNRCurves(tr)
		deltas := stats.PairwiseMinSNRChanges(curves)
		allDeltas = append(allDeltas, deltas...)
		for _, d := range deltas {
			pairs++
			if d >= 10 {
				ge10++
			}
		}
		mins := stats.MinPerCurve(curves)
		res.PerTrialMin = append(res.PerTrialMin, stats.NewECDF(mins))
		for _, m := range mins {
			cfgs++
			if m < 20 {
				below20++
			}
		}
	}
	res.DeltaMin = stats.NewECDF(allDeltas)
	if pairs > 0 {
		res.FracChangeGE10 = float64(ge10) / float64(pairs)
	}
	if cfgs > 0 {
		res.FracMinBelow20 = float64(below20) / float64(cfgs)
	}
	return res, nil
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
