package flight

import (
	"math"
	"sort"

	"press/internal/obs/seglog"
	"press/internal/stats"
)

// Dist condenses one KPI's samples into the fields a cross-run diff
// compares.
type Dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// distOf summarizes xs; a zero Dist (N=0) means no samples.
func distOf(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	return Dist{
		N:    len(xs),
		Mean: stats.Mean(xs),
		Min:  stats.Min(xs),
		Max:  stats.Max(xs),
		P50:  stats.Quantile(xs, 0.5),
		P90:  stats.Quantile(xs, 0.9),
		P99:  stats.Quantile(xs, 0.99),
	}
}

// Summary is the decoded, aggregated view of one run — what
// /runs/{id}.json serves and what rundiff compares.
type Summary struct {
	RunID       string `json:"run_id"`
	Binary      string `json:"binary"`
	Scenario    string `json:"scenario"`
	Seed        uint64 `json:"seed"`
	Fingerprint uint64 `json:"fingerprint"`
	StartUnixNs int64  `json:"start_unix_ns"`
	GoVersion   string `json:"go_version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`

	// Measurements is the CSI sample count; Subcarriers the curve width
	// of the first sample.
	Measurements int `json:"measurements"`
	Subcarriers  int `json:"subcarriers,omitempty"`

	// Physical-layer KPIs over the CSI stream.
	MinSNRdB      Dist    `json:"min_snr_db"`
	NullDepthDB   Dist    `json:"null_depth_db"`
	FinalMinSNRdB float64 `json:"final_min_snr_db,omitempty"`

	// CondDB aggregates "cond_db_median" KPI samples (MIMO harnesses).
	CondDB Dist `json:"cond_db,omitempty"`

	// Search trajectory: evaluations, best score, and the regret of each
	// evaluation's best-so-far against the run's final best.
	SearchEvals int     `json:"search_evals"`
	BestScore   float64 `json:"best_score,omitempty"`
	RegretDB    Dist    `json:"regret_db,omitempty"`

	Actuations  int `json:"actuations"`
	AlertsFired int `json:"alerts_fired"`

	// Runtime-health aggregates over the periodic RuntimeSample stream
	// (empty when the run recorded none).
	RuntimeSamples int  `json:"runtime_samples,omitempty"`
	HeapLiveMB     Dist `json:"heap_live_mb,omitempty"`
	Goroutines     Dist `json:"goroutines,omitempty"`
	GCPauseP99Ms   Dist `json:"gc_pause_p99_ms,omitempty"`
	SchedLatP99Ms  Dist `json:"sched_latency_p99_ms,omitempty"`
	// GCCycles is the number of GC cycles the run spanned (last sample
	// minus first).
	GCCycles uint64 `json:"gc_cycles,omitempty"`

	// Phases carries the run's final per-phase work-accounting totals
	// (empty when the run recorded no phase-cost samples).
	Phases []PhaseSummary `json:"phases,omitempty"`

	// Control-loop deadline accounting over the KindLoop stream (zero
	// when the run traced no loops). Slack is deadline − latency; loops
	// without a deadline are excluded from the slack distribution.
	Loops         int  `json:"loops,omitempty"`
	LoopMisses    int  `json:"loop_misses,omitempty"`
	LoopLatencyMs Dist `json:"loop_latency_ms,omitempty"`
	LoopSlackMs   Dist `json:"loop_slack_ms,omitempty"`

	Decode seglog.Stats `json:"decode"`
}

// PhaseSummary is one phase's final cumulative work totals. Because
// PhaseCost samples are cumulative, the last sample per phase name wins.
type PhaseSummary struct {
	Phase string     `json:"phase"`
	Ns    int64      `json:"ns"`
	Calls int64      `json:"calls"`
	Bytes int64      `json:"bytes,omitempty"`
	Aux   []AuxCount `json:"aux,omitempty"`
}

// summarizePhases reduces the cumulative sample stream to the final
// totals per phase, sorted by phase name for stable output.
func summarizePhases(samples []PhaseCost) []PhaseSummary {
	if len(samples) == 0 {
		return nil
	}
	last := make(map[string]PhaseCost, 8)
	for _, p := range samples {
		prev, ok := last[p.Phase]
		if !ok || p.UnixNs >= prev.UnixNs {
			last[p.Phase] = p
		}
	}
	out := make([]PhaseSummary, 0, len(last))
	for _, p := range last {
		out = append(out, PhaseSummary{Phase: p.Phase, Ns: p.Ns, Calls: p.Calls, Bytes: p.Bytes, Aux: p.Aux})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}

// Summarize aggregates a decoded run. It never fails: missing record
// classes leave zero-valued fields.
func Summarize(run *Run) Summary {
	s := Summary{Decode: run.Stats}
	if m := run.Manifest; m != nil {
		s.RunID = m.RunID
		s.Binary = m.Binary
		s.Scenario = m.Scenario
		s.Seed = m.Seed
		s.Fingerprint = m.Fingerprint
		s.StartUnixNs = m.StartUnixNs
		s.GoVersion = m.GoVersion
		s.VCSRevision = m.VCSRevision
	}

	s.Measurements = len(run.CSI)
	if len(run.CSI) > 0 {
		s.Subcarriers = len(run.CSI[0].SNRdB)
		minSNR := make([]float64, 0, len(run.CSI))
		depths := make([]float64, 0, len(run.CSI))
		for _, c := range run.CSI {
			if len(c.SNRdB) == 0 {
				continue
			}
			minSNR = append(minSNR, stats.Min(c.SNRdB))
			if null, ok := stats.MostSignificantNull(c.SNRdB, 0); ok {
				depths = append(depths, null.DepthDB)
			}
		}
		s.MinSNRdB = distOf(minSNR)
		s.NullDepthDB = distOf(depths)
		if len(minSNR) > 0 {
			s.FinalMinSNRdB = minSNR[len(minSNR)-1]
		}
	}

	var cond []float64
	for _, k := range run.KPIs {
		if k.Name == KPICondDBMedian {
			cond = append(cond, k.Value)
		}
	}
	s.CondDB = distOf(cond)

	s.SearchEvals = len(run.Decisions)
	if len(run.Decisions) > 0 {
		best := math.Inf(-1)
		trajectory := make([]float64, 0, len(run.Decisions))
		for _, d := range run.Decisions {
			if d.Score > best {
				best = d.Score
			}
			trajectory = append(trajectory, best)
		}
		s.BestScore = best
		regret := make([]float64, len(trajectory))
		for i, b := range trajectory {
			regret[i] = best - b
		}
		s.RegretDB = distOf(regret)
	}

	s.Actuations = len(run.Actuations)
	for _, a := range run.Alerts {
		if a.To == alertStateFiring {
			s.AlertsFired++
		}
	}

	s.RuntimeSamples = len(run.Runtime)
	if n := len(run.Runtime); n > 0 {
		heap := make([]float64, n)
		gor := make([]float64, n)
		pause := make([]float64, n)
		sched := make([]float64, n)
		for i, rt := range run.Runtime {
			heap[i] = float64(rt.HeapLiveBytes) / (1 << 20)
			gor[i] = float64(rt.Goroutines)
			pause[i] = rt.GCPauseP99 * 1e3
			sched[i] = rt.SchedLatP99 * 1e3
		}
		s.HeapLiveMB = distOf(heap)
		s.Goroutines = distOf(gor)
		s.GCPauseP99Ms = distOf(pause)
		s.SchedLatP99Ms = distOf(sched)
		if last, first := run.Runtime[n-1].GCCycles, run.Runtime[0].GCCycles; last >= first {
			s.GCCycles = last - first
		}
	}
	s.Phases = summarizePhases(run.PhaseCosts)

	s.Loops = len(run.Loops)
	if len(run.Loops) > 0 {
		lat := make([]float64, 0, len(run.Loops))
		slack := make([]float64, 0, len(run.Loops))
		for _, l := range run.Loops {
			lat = append(lat, float64(l.LatencyNs)/1e6)
			if l.DeadlineNs > 0 {
				slack = append(slack, float64(l.DeadlineNs-l.LatencyNs)/1e6)
			}
			if l.Missed {
				s.LoopMisses++
			}
		}
		s.LoopLatencyMs = distOf(lat)
		s.LoopSlackMs = distOf(slack)
	}
	return s
}

// KPICondDBMedian is the KPI record name the MIMO harnesses log for the
// median per-subcarrier condition number in dB.
const KPICondDBMedian = "cond_db_median"

// alertStateFiring mirrors health.StateFiring's wire value without
// importing the package here (cli.go owns that dependency).
const alertStateFiring = 2
