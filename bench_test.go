// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§3) plus the §2 timing analysis and the §4 design-space
// ablations. Each benchmark runs the corresponding experiment harness at
// reduced-but-representative size (the full paper-sized runs live behind
// cmd/pressim) and reports the headline metric alongside ns/op:
//
//	go test -bench=. -benchmem
package press_test

import (
	"testing"
	"time"

	"press/internal/experiments"
	"press/internal/obs"
)

// BenchmarkCounterInc measures one telemetry counter increment on the
// hot path as instrumented code writes it — lookup plus increment — for
// a live registry and for the nil (disabled) default. The disabled case
// must report 0 allocs/op: telemetry off cannot tax the simulator.
func BenchmarkCounterInc(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		reg := obs.NewRegistry()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Counter("bench_events_total").Inc()
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var reg *obs.Registry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Counter("bench_events_total").Inc()
		}
	})
}

// BenchmarkHistogramObserve is BenchmarkCounterInc for histogram
// observations (the per-measurement latency recording).
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		reg := obs.NewRegistry()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Histogram("bench_seconds", obs.LatencyBuckets).
				ObserveDuration(time.Duration(i) * time.Microsecond)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var reg *obs.Registry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Histogram("bench_seconds", obs.LatencyBuckets).
				ObserveDuration(time.Duration(i) * time.Microsecond)
		}
	})
}

// BenchmarkExpLoS regenerates the §3 line-of-sight preliminary check:
// passive elements move a LoS channel by < 2 dB.
func BenchmarkExpLoS(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLoS(experiments.LoSOptions{Seed: 441, Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		last = res.PassiveMaxEffectDB
	}
	b.ReportMetric(last, "passive_effect_dB")
}

// BenchmarkExpFig4 regenerates Figure 4: per-subcarrier SNR of the two
// most different configurations per placement (paper headline: 18.6 dB
// mean change, 26 dB single-trial change).
func BenchmarkExpFig4(b *testing.B) {
	var mean, single float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(experiments.Fig4Options{Placements: 8, Trials: 3, BaseSeed: 438})
		if err != nil {
			b.Fatal(err)
		}
		mean, single = res.LargestMeanChangeDB, res.LargestSingleChangeDB
	}
	b.ReportMetric(mean, "mean_change_dB")
	b.ReportMetric(single, "single_change_dB")
}

// BenchmarkExpFig5 regenerates Figure 5: the null-movement CCDF
// (paper headline: shifts of up to ≈9 subcarriers).
func BenchmarkExpFig5(b *testing.B) {
	var maxMove float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.Fig5Options{Seed: 442, Trials: 3})
		if err != nil {
			b.Fatal(err)
		}
		maxMove = float64(res.MaxMovement)
	}
	b.ReportMetric(maxMove, "max_null_move_subcarriers")
}

// BenchmarkExpFig6 regenerates Figure 6: min-SNR change CCDF and min-SNR
// distribution (paper: ≈38% of changes ≥10 dB; <9% of configs below
// 20 dB).
func BenchmarkExpFig6(b *testing.B) {
	var ge10, below20 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(experiments.Fig6Options{Seed: 442, Trials: 3})
		if err != nil {
			b.Fatal(err)
		}
		ge10, below20 = res.FracChangeGE10, res.FracMinBelow20
	}
	b.ReportMetric(ge10, "frac_ge10dB")
	b.ReportMetric(below20, "frac_below20dB")
}

// BenchmarkExpFig7 regenerates Figure 7: two configurations with opposite
// half-band selectivity (network harmonization).
func BenchmarkExpFig7(b *testing.B) {
	var contrast float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(experiments.Fig7Options{Seed: 715, MaxSeedTries: 1, MinContrastDB: 3})
		if err != nil {
			b.Fatal(err)
		}
		contrast = res.ContrastLowerDB + res.ContrastUpperDB
	}
	b.ReportMetric(contrast, "joint_contrast_dB")
}

// BenchmarkExpFig8 regenerates Figure 8: the 2×2 condition-number CDFs
// per configuration (paper headline: ≈1.5 dB best-to-worst median
// spread).
func BenchmarkExpFig8(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(experiments.Fig8Options{Seed: 822, Snapshots: 10, Repetitions: 1})
		if err != nil {
			b.Fatal(err)
		}
		spread = res.SpreadDB
	}
	b.ReportMetric(spread, "cond_spread_dB")
}

// BenchmarkExpCoherence regenerates the §2 coherence-time table (paper:
// ≈80 ms at 0.5 mph, ≈6 ms at 6 mph; 64-config sweep ≈5 s).
func BenchmarkExpCoherence(b *testing.B) {
	var walking float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunCoherence()
		walking = res.Rows[0].CoherenceMs
	}
	b.ReportMetric(walking, "coherence_at_walk_ms")
}

// BenchmarkAblationPhases regenerates ablation A1: reflection-phase
// granularity (§4.1's "around eight phase values ... may provide
// sufficient resolution").
func BenchmarkAblationPhases(b *testing.B) {
	var gain8 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPhaseAblation(442, []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		gain8 = res.Rows[len(res.Rows)-1].GainDB
	}
	b.ReportMetric(gain8, "gain_at_8_phases_dB")
}

// BenchmarkAblationElements regenerates ablation A2: element count and
// directionality (§4.1).
func BenchmarkAblationElements(b *testing.B) {
	var bestGain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunElementAblation(442, []int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.GainDB > bestGain {
				bestGain = row.GainDB
			}
		}
	}
	b.ReportMetric(bestGain, "best_gain_dB")
}

// BenchmarkAblationSearch regenerates ablation A3: search strategies on
// the 4⁸-configuration space (§4.2).
func BenchmarkAblationSearch(b *testing.B) {
	var greedyFrac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSearchAblation(442, 120)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Algorithm == "greedy" {
				greedyFrac = row.FracOfExhaustive
			}
		}
	}
	b.ReportMetric(greedyFrac, "greedy_frac_of_exhaustive")
}

// BenchmarkAblationContinuous regenerates ablation A4: continuous phase
// control vs discrete banks (§4.1's continuously-variable hardware).
func BenchmarkAblationContinuous(b *testing.B) {
	var contGain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunContinuousAblation(442, 120)
		if err != nil {
			b.Fatal(err)
		}
		contGain = res.ContinuousDB - res.BaselineDB
	}
	b.ReportMetric(contGain, "continuous_gain_dB")
}

// BenchmarkExpStaleness regenerates the sweep-staleness experiment: the
// §2 coherence-time argument as a measured regret.
func BenchmarkExpStaleness(b *testing.B) {
	var regret float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStaleness(442, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		regret = res.Rows[0].RegretDB
	}
	b.ReportMetric(regret, "walking_regret_dB")
}

// BenchmarkExpMIMOScaling regenerates the §3.2.3 prediction check:
// PRESS's conditioning control grows with MIMO dimension.
func BenchmarkExpMIMOScaling(b *testing.B) {
	var spread4 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMIMOScaling(822, []int{2, 4}, 5)
		if err != nil {
			b.Fatal(err)
		}
		spread4 = res.Rows[1].SpreadDB
	}
	b.ReportMetric(spread4, "spread_4x4_dB")
}

// BenchmarkExpFaults regenerates the §2 maintenance experiment: graceful
// degradation under element failures.
func BenchmarkExpFaults(b *testing.B) {
	var gainAt4Failed float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFaultTolerance(442)
		if err != nil {
			b.Fatal(err)
		}
		gainAt4Failed = res.Rows[len(res.Rows)-1].MeasuredGainDB
	}
	b.ReportMetric(gainAt4Failed, "gain_4_failed_dB")
}

// BenchmarkExpControlPlane regenerates the §4.2 medium comparison.
func BenchmarkExpControlPlane(b *testing.B) {
	var wiredGain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunControlPlaneComparison(442)
		if err != nil {
			b.Fatal(err)
		}
		wiredGain = res.Rows[0].GainAtWalkDB
	}
	b.ReportMetric(wiredGain, "wired_gain_at_walk_dB")
}

// BenchmarkExpArrayScaling regenerates the §5 future-work experiment:
// larger arrays of smaller antennas.
func BenchmarkExpArrayScaling(b *testing.B) {
	var gain16 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunArrayScaling(442, []int{4, 16}, 300)
		if err != nil {
			b.Fatal(err)
		}
		gain16 = res.Rows[1].GreedyGainDB
	}
	b.ReportMetric(gain16, "gain_16_elements_dB")
}
