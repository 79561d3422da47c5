package experiments

import (
	"testing"

	"press/internal/trace"
)

// TestFigAnalysesThresholds runs the Figure 4–6 reductions on
// hand-built records whose samples sit on the figures' thresholds: null
// movements of exactly 2–5 subcarriers (Fig 5 counts > 3), a min-SNR
// change of exactly 10 dB (Fig 6 counts ≥ 10) and a worst subcarrier of
// exactly 20 dB (Fig 6 counts < 20).
//
// Configuration "a" has its null (10 dB) at subcarrier 0, "b" its null
// (20 dB) at subcarrier move, on a flat 30 dB curve. Trial 0 measures
// both, trial 1 only "a", and "c" is never measured. The samples are
// pooled over trials: Fig 5 has 4 + 1 ordered pairs (two of them moving
// by move), Fig 6 has 4 + 1 min-SNR changes (two of exactly 10 dB) and
// 2 + 1 worst subcarriers (two of them 10 dB, one 20 dB).
func TestFigAnalysesThresholds(t *testing.T) {
	curve := func(nullAt int, nullDB float64) []float64 {
		c := []float64{30, 30, 30, 30, 30, 30, 30, 30}
		c[nullAt] = nullDB
		return c
	}
	for _, tc := range []struct {
		move       int
		fracBeyond float64
	}{
		{move: 2, fracBeyond: 0},
		{move: 3, fracBeyond: 0},
		{move: 4, fracBeyond: 2.0 / 5},
		{move: 5, fracBeyond: 2.0 / 5},
	} {
		a, b := curve(0, 10), curve(tc.move, 20)
		rec := &trace.Record{
			Version: trace.FormatVersion, CenterHz: 2.462e9, SpacingHz: 312.5e3,
			ConfigNames: []string{"a", "b", "c"},
			Trials: []trace.Trial{
				{Measurements: []trace.Measurement{{ConfigIdx: 0, SNRdB: a}, {ConfigIdx: 1, SNRdB: b}}},
				{Measurements: []trace.Measurement{{ConfigIdx: 0, SNRdB: a}}},
			},
		}
		if err := rec.Validate(); err != nil {
			t.Fatal(err)
		}

		f5 := fig5Analysis(rec)
		if f5.MaxMovement != tc.move || f5.FracBeyond3 != tc.fracBeyond {
			t.Errorf("move %d: fig5 max %d, frac >3 %v; want %d, %v",
				tc.move, f5.MaxMovement, f5.FracBeyond3, tc.move, tc.fracBeyond)
		}
		if n := samples(f5.PerTrial...); len(f5.PerTrial) != 2 || n != 5 {
			t.Errorf("move %d: fig5 %d trials, %d pairs; want 2, 5", tc.move, len(f5.PerTrial), n)
		}

		f6 := fig6Analysis(rec)
		if f6.FracChangeGE10 != 2.0/5 || f6.FracMinBelow20 != 2.0/3 {
			t.Errorf("move %d: fig6 frac ≥10 dB %v, frac <20 dB %v; want %v, %v",
				tc.move, f6.FracChangeGE10, f6.FracMinBelow20, 2.0/5, 2.0/3)
		}
		if samples(f6.DeltaMin) != 5 || samples(f6.PerTrialMin...) != 3 {
			t.Errorf("move %d: fig6 %d changes, %d minima; want 5, 3",
				tc.move, samples(f6.DeltaMin), samples(f6.PerTrialMin...))
		}

		// Fig 4: "a" averages to itself, "b" is its one measurement, and
		// they differ most (20 dB) at subcarrier 0, in trial 0 as well.
		pl, err := fig4Analysis(rec)
		if err != nil {
			t.Fatal(err)
		}
		if pl.ConfigA != "a" || pl.ConfigB != "b" || pl.MaxMeanDiffDB != 20 || pl.MaxSingleDiffDB != 20 ||
			pl.SNRB[tc.move] != 20 {
			t.Errorf("move %d: fig4 panel %+v", tc.move, pl)
		}
	}
}
