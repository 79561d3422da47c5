package experiments

import (
	"fmt"
	"io"

	"press/internal/radio"
	"press/internal/stats"
	"press/internal/trace"
)

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
	swept, err := link.SweepTrials(radio.PrototypeTiming, trials)
	if err != nil {
		return nil, err
	}
	return trace.FromSweepTrials(link, swept,
		fmt.Sprintf("PRESS sweep, placement seed %d, %d trials, 64 configs", seed, trials))
}

// ReplayAnalysis loads a recorded sweep and re-runs the Figure 5/6
// statistics on it, printing the same headline rows the live harnesses
// produce.
func ReplayAnalysis(r io.Reader, w io.Writer) error {
	rec, err := trace.Load(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Replaying recorded sweep: %s\n", rec.Description)
	fmt.Fprintf(w, "%d configurations × %d trials × %d subcarriers\n\n",
		len(rec.ConfigNames), len(rec.Trials), rec.NumSubcarriers())

	var (
		maxMove          int
		beyond3, pairs   int
		ge10, deltaPairs int
		below20, cfgs    int
	)
	for ti := range rec.Trials {
		curves, err := rec.Curves(ti)
		if err != nil {
			return err
		}
		// Drop unmeasured configs (nil curves) for the statistics.
		var present [][]float64
		for _, c := range curves {
			if c != nil {
				present = append(present, c)
			}
		}
		for _, m := range stats.PairwiseNullMovements(present, stats.DefaultNullDepthDB) {
			pairs++
			if m > 3 {
				beyond3++
			}
			if int(m) > maxMove {
				maxMove = int(m)
			}
		}
		for _, d := range stats.PairwiseMinSNRChanges(present) {
			deltaPairs++
			if d >= 10 {
				ge10++
			}
		}
		for _, m := range stats.MinPerCurve(present) {
			cfgs++
			if m < 20 {
				below20++
			}
		}
	}
	fmt.Fprintf(w, "Figure 5 (from record): max null movement = %d subcarriers\n", maxMove)
	if pairs > 0 {
		fmt.Fprintf(w, "Figure 5 (from record): fraction of pairs moving >3 subcarriers = %.3f\n",
			float64(beyond3)/float64(pairs))
	}
	if deltaPairs > 0 {
		fmt.Fprintf(w, "Figure 6 (from record): fraction of changes ≥10 dB = %.3f\n",
			float64(ge10)/float64(deltaPairs))
	}
	if cfgs > 0 {
		fmt.Fprintf(w, "Figure 6 (from record): fraction of configs below 20 dB = %.3f\n",
			float64(below20)/float64(cfgs))
	}
	return nil
}
