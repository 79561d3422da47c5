package experiments

import (
	"fmt"
	"io"
	"slices"

	"press/internal/radio"
	"press/internal/stats"
	"press/internal/trace"
)

// measure sweeps every configuration of link trials times at the
// prototype's timing and returns the sweep as a trace.Record. It is the
// one measurement behind Figures 4–6, the LoS check and RecordSweep;
// their analyses read only the record, so a record loaded from a file
// (ReplayAnalysis) goes through the same reductions as a live sweep.
func measure(link *radio.Link, trials int) (*trace.Record, error) {
	swept, err := link.SweepTrials(radio.PrototypeTiming, trials)
	if err != nil {
		return nil, err
	}
	return trace.FromSweepTrials(link, swept, "")
}

// measuredCurves returns trial ti's SNR curves without the
// configurations that trial did not measure.
func measuredCurves(rec *trace.Record, ti int) [][]float64 {
	all, _ := rec.Curves(ti) // callers range over rec.Trials, so ti is valid
	return slices.DeleteFunc(all, func(c []float64) bool { return c == nil })
}

// meanCurves averages each configuration's SNR curve over the trials
// that measured it: mean[c][k] is the mean at subcarrier k of the c-th
// measured configuration, named names[c]. Configurations no trial
// measured are left out.
func meanCurves(rec *trace.Record) (names []string, mean [][]float64) {
	sums := make([][]float64, len(rec.ConfigNames))
	counts := make([]float64, len(rec.ConfigNames))
	for _, tr := range rec.Trials {
		for _, m := range tr.Measurements {
			if sums[m.ConfigIdx] == nil {
				sums[m.ConfigIdx] = make([]float64, len(m.SNRdB))
			}
			for k, x := range m.SNRdB {
				sums[m.ConfigIdx][k] += x
			}
			counts[m.ConfigIdx]++
		}
	}
	for c, sum := range sums {
		if sum == nil {
			continue
		}
		inv := 1 / counts[c]
		for k := range sum {
			sum[k] *= inv
		}
		names = append(names, rec.ConfigNames[c])
		mean = append(mean, sum)
	}
	return names, mean
}

// RecordSweep measures the placement-(e) campaign (the dataset behind
// Figures 4–6; seed 0 is placement (e) itself) and returns it as a
// trace.Record, which serializes so the analyses can be re-run offline,
// or swapped for a record captured on real hardware with the same
// schema. When the process-wide observer carries a TraceLog (-trace),
// each measurement row gets a trace ID joining it to its "radio/measure"
// span.
func RecordSweep(seed uint64, trials int) (*trace.Record, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiments: record needs ≥1 trial")
	}
	if seed == 0 {
		seed = placementE
	}
	link, err := DefaultSISO(seed).Build()
	if err != nil {
		return nil, err
	}
	rec, err := measure(link, trials)
	if err != nil {
		return nil, err
	}
	rec.Description = fmt.Sprintf("PRESS sweep, placement seed %d, %d trials, 64 configs", seed, trials)
	return rec, nil
}

// ReplayAnalysis loads a recorded sweep and runs the live Figure 5/6
// reductions on it, printing their headline rows. A fraction whose
// sample set is empty is left out.
func ReplayAnalysis(r io.Reader, w io.Writer) error {
	rec, err := trace.Load(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Replaying recorded sweep: %s\n", rec.Description)
	fmt.Fprintf(w, "%d configurations × %d trials × %d subcarriers\n\n",
		len(rec.ConfigNames), len(rec.Trials), rec.NumSubcarriers())

	f5, f6 := fig5Analysis(rec), fig6Analysis(rec)
	fmt.Fprintf(w, "Figure 5 (from record): max null movement = %d subcarriers\n", f5.MaxMovement)
	if samples(f5.PerTrial...) > 0 {
		fmt.Fprintf(w, "Figure 5 (from record): fraction of pairs moving >3 subcarriers = %.3f\n", f5.FracBeyond3)
	}
	if samples(f6.DeltaMin) > 0 {
		fmt.Fprintf(w, "Figure 6 (from record): fraction of changes ≥10 dB = %.3f\n", f6.FracChangeGE10)
	}
	if samples(f6.PerTrialMin...) > 0 {
		fmt.Fprintf(w, "Figure 6 (from record): fraction of configs below 20 dB = %.3f\n", f6.FracMinBelow20)
	}
	return nil
}

// samples counts the samples behind the distributions.
func samples(es ...*stats.ECDF) int {
	n := 0
	for _, e := range es {
		n += e.N()
	}
	return n
}
