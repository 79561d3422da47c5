package experiments

import (
	"fmt"
	"io"

	"press/internal/stats"
)

// LoSOptions parameterizes the §3 line-of-sight preliminary experiment.
type LoSOptions struct {
	Seed   uint64
	Trials int
	// ActiveGainDB, when positive, re-runs the experiment with active
	// elements of that gain — the §2 design point for LoS links.
	ActiveGainDB float64
}

// DefaultLoS matches the paper's preliminary check.
func DefaultLoS() LoSOptions { return LoSOptions{Seed: 441, Trials: 3, ActiveGainDB: 30} }

// LoSResult quantifies how much the passive (and optionally active) array
// can move a line-of-sight channel.
type LoSResult struct {
	// PassiveMaxEffectDB is the largest per-subcarrier change of the mean
	// SNR across all configuration pairs with line of sight; the paper
	// measures < 2 dB.
	PassiveMaxEffectDB float64
	// ActiveMaxEffectDB is the same with active elements, when requested
	// (0 otherwise) — §3: "line-of-sight links require some active PRESS
	// elements".
	ActiveMaxEffectDB float64
}

// RunLoS reproduces the §3 observation: "the effect of the PRESS element
// configurations on the per-subcarrier SNR is limited to less than 2 dB
// ... as the line-of-sight signal dominates".
func RunLoS(opts LoSOptions) (*LoSResult, error) {
	if opts.Trials < 1 {
		return nil, fmt.Errorf("experiments: los needs ≥1 trial")
	}
	res := &LoSResult{}
	passive, err := losMaxEffect(opts, 0)
	if err != nil {
		return nil, err
	}
	res.PassiveMaxEffectDB = passive
	if opts.ActiveGainDB > 0 {
		active, err := losMaxEffect(opts, opts.ActiveGainDB)
		if err != nil {
			return nil, err
		}
		res.ActiveMaxEffectDB = active
	}
	return res, nil
}

// losMaxEffect sweeps the LoS scenario and returns the largest
// per-subcarrier spread of mean SNR across configurations.
func losMaxEffect(opts LoSOptions, activeGainDB float64) (float64, error) {
	scen := DefaultSISO(opts.Seed)
	scen.LineOfSight = true
	link, err := scen.Build()
	if err != nil {
		return 0, err
	}
	if activeGainDB > 0 {
		for _, e := range link.Array.Elements {
			e.ActiveGainDB = activeGainDB
			e.LossDB = 0
		}
	}
	rec, err := measure(link, opts.Trials)
	if err != nil {
		return 0, err
	}
	_, mean := meanCurves(rec)
	// A subcarrier's largest pair difference is its max − min spread; ok
	// is false only for fewer than two configurations, whose spread is 0.
	_, _, worst, _ := stats.LargestPairDifference(mean)
	return worst, nil
}

// Print renders the comparison.
func (r *LoSResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Line-of-sight preliminary experiment (§3)\n")
	fmt.Fprintf(w, "Passive elements, LoS link: max per-subcarrier SNR effect = %.2f dB (paper: < 2 dB)\n",
		r.PassiveMaxEffectDB)
	if r.ActiveMaxEffectDB > 0 {
		fmt.Fprintf(w, "Active elements,  LoS link: max per-subcarrier SNR effect = %.2f dB (paper: \"LoS links require some active PRESS elements\")\n",
			r.ActiveMaxEffectDB)
	}
}
