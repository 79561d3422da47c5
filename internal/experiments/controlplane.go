package experiments

import (
	"fmt"
	"io"
	"time"

	"press/internal/control"
	"press/internal/radio"
)

// ControlPlaneRow evaluates one §4.2 control-plane candidate medium.
type ControlPlaneRow struct {
	Medium string
	// ActuationLatency is the one-way command latency of the medium.
	ActuationLatency time.Duration
	// PerMeasurement is actuation plus one CSI sounding.
	PerMeasurement time.Duration
	// WalkBudget and RunBudget are the §2 measurement budgets at 0.5 and
	// 6 mph.
	WalkBudget, RunBudget int
	// GainAtWalkDB is the greedy max-min-SNR gain achievable within the
	// walking budget on the calibrated testbed.
	GainAtWalkDB float64
}

// ControlPlaneResult compares the §4.2 candidates: "likely wireless
// control plane candidates are low-frequency, low-rate bands ... other
// candidates include ultrasound ... as well as wires".
type ControlPlaneResult struct {
	Rows []ControlPlaneRow
}

// RunControlPlaneComparison models each medium's actuation latency (the
// sounding itself costs 1 ms on all of them) and measures what a greedy
// controller achieves within the walking-pace coherence budget.
func RunControlPlaneComparison(seed uint64) (*ControlPlaneResult, error) {
	media := []struct {
		name string
		lat  time.Duration
	}{
		// Wires between array subsets: microseconds.
		{"wired", 100 * time.Microsecond},
		// Low-rate sub-GHz ISM band: a short command frame at ~100 kb/s.
		{"low-rate ISM", 3 * time.Millisecond},
		// Whitespace: similar rate, longer frames/duty cycling.
		{"whitespace", 8 * time.Millisecond},
		// Ultrasound: room-scoped by design, but sound crosses a 10 m
		// room in ~30 ms.
		{"ultrasound", 30 * time.Millisecond},
		// The prototype's host-in-the-loop switching.
		{"prototype", radio.PrototypeTiming.PerMeasurement + radio.PrototypeTiming.SwitchLatency},
	}
	const soundingCost = time.Millisecond

	res := &ControlPlaneResult{}
	for _, m := range media {
		timing := radio.Timing{PerMeasurement: soundingCost, SwitchLatency: m.lat}
		walk := control.CoherenceBudgetAtSpeed(0.5, 2.462e9, timing)
		run := control.CoherenceBudgetAtSpeed(6, 2.462e9, timing)

		link, err := DefaultSISO(seed).Build()
		if err != nil {
			return nil, err
		}
		ev := &control.Evaluator{Goals: []control.Goal{{Link: link, Objective: control.MaxMinSNR{}}}, Timing: timing}
		base, ok := link.Array.AllTerminated()
		if !ok {
			base = make([]int, link.Array.N())
		}
		baseline, err := ev.Eval(base)
		if err != nil {
			return nil, err
		}
		rng := newSeededRand(seed, uint64(len(res.Rows)+1))
		r, err := instrument(control.Greedy{Rng: rng, Restarts: 2}).Search(link.Array, ev.Eval, walk)
		if err != nil && r == nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ControlPlaneRow{
			Medium:           m.name,
			ActuationLatency: m.lat,
			PerMeasurement:   soundingCost + m.lat,
			WalkBudget:       walk,
			RunBudget:        run,
			GainAtWalkDB:     r.BestScore - baseline,
		})
	}
	return res, nil
}

// Print renders the comparison.
func (r *ControlPlaneResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Control-plane candidates (§4.2): actuation latency vs achievable gain\n")
	fmt.Fprintf(w, "(1 ms sounding per measurement; budgets from Tc = 9/16πfd at 2.462 GHz)\n\n")
	fmt.Fprintf(w, "%-14s  %-12s  %-12s  %-12s  %-12s  %-14s\n",
		"medium", "actuation", "per-meas", "walk budget", "run budget", "gain@walk dB")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s  %-12v  %-12v  %-12d  %-12d  %-14.2f\n",
			row.Medium, row.ActuationLatency, row.PerMeasurement,
			row.WalkBudget, row.RunBudget, row.GainAtWalkDB)
	}
}
