package experiments

import (
	"bytes"
	"testing"
)

// TestExperimentsDeterministic pins the reproducibility guarantee the
// README makes: identical options produce bit-identical results, across
// the whole harness surface. Every figure in EXPERIMENTS.md depends on
// this.
func TestExperimentsDeterministic(t *testing.T) {
	t.Run("fig4", func(t *testing.T) {
		o := Fig4Options{Placements: 2, Trials: 2, BaseSeed: 438}
		a, err := RunFig4(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunFig4(o)
		if err != nil {
			t.Fatal(err)
		}
		if a.LargestMeanChangeDB != b.LargestMeanChangeDB ||
			a.LargestSingleChangeDB != b.LargestSingleChangeDB {
			t.Error("fig4 headlines differ between runs")
		}
		for p := range a.Placements {
			for k := range a.Placements[p].SNRA {
				if a.Placements[p].SNRA[k] != b.Placements[p].SNRA[k] {
					t.Fatalf("fig4 placement %d subcarrier %d differs", p, k)
				}
			}
		}
	})

	t.Run("fig5", func(t *testing.T) {
		o := Fig5Options{Seed: 442, Trials: 2, NullDepthDB: 5}
		a, err := RunFig5(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunFig5(o)
		if err != nil {
			t.Fatal(err)
		}
		if a.MaxMovement != b.MaxMovement || a.FracBeyond3 != b.FracBeyond3 {
			t.Error("fig5 statistics differ between runs")
		}
	})

	t.Run("fig8", func(t *testing.T) {
		o := Fig8Options{Seed: 822, Snapshots: 3, Repetitions: 1}
		a, err := RunFig8(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunFig8(o)
		if err != nil {
			t.Fatal(err)
		}
		if a.SpreadDB != b.SpreadDB || a.BestIdx != b.BestIdx || a.WorstIdx != b.WorstIdx {
			t.Error("fig8 results differ between runs")
		}
	})

	t.Run("record", func(t *testing.T) {
		var r1, r2 bytes.Buffer
		for _, w := range []*bytes.Buffer{&r1, &r2} {
			rec, err := RecordSweep(442, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Save(w); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
			t.Error("recorded sweeps differ byte-for-byte between runs")
		}
	})
}
