package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"

	"press/internal/control"
	"press/internal/element"
)

// ContinuousAblationResult tests the §4.1 endgame ("plan on testing with
// continuously-variable phase shifting hardware"): how much does
// continuous phase control buy over the discrete stub banks, per
// measurement spent?
type ContinuousAblationResult struct {
	// BaselineDB is the terminated-array worst-subcarrier SNR.
	BaselineDB float64
	// Discrete3DB is the exhaustive optimum over the SP4T bank
	// (3 phases + off, 64 configs) and Discrete8DB over the 8-phase+off
	// bank via greedy under the same budget as SPSA.
	Discrete3DB float64
	Discrete8DB float64
	// ContinuousDB is SPSA's optimum over continuous phases.
	ContinuousDB float64
	// QuantizedDB is the continuous winner quantized back onto the SP4T
	// bank and re-measured — what a continuous-trained controller gets
	// when deployed on discrete hardware.
	QuantizedDB float64
	// Budget is the measurement budget the 8-phase and continuous runs
	// observed.
	Budget int
}

// RunContinuousAblation runs the four-way comparison at one placement.
func RunContinuousAblation(seed uint64, budget int) (*ContinuousAblationResult, error) {
	if budget < 1 {
		budget = 200
	}
	res := &ContinuousAblationResult{Budget: budget}

	// Discrete SP4T: exhaustive over 64.
	scen := DefaultSISO(seed)
	link, err := scen.Build()
	if err != nil {
		return nil, err
	}
	base, best3, _, err := baselineAndBest(link)
	if err != nil {
		return nil, err
	}
	res.BaselineDB, res.Discrete3DB = base, best3

	// Discrete 8-phase + off under the budget.
	scen8 := DefaultSISO(seed)
	scen8.ElementStates = element.NPhaseStates(8, true)
	link8, err := scen8.Build()
	if err != nil {
		return nil, err
	}
	ev8 := &control.Evaluator{Goals: []control.Goal{{Link: link8, Objective: control.MaxMinSNR{}}}}
	r8, err := (control.Greedy{Rng: rand.New(rand.NewPCG(seed, 81)), Restarts: 4}).
		Search(link8.Array, ev8.Eval, budget)
	if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
		return nil, err
	}
	res.Discrete8DB = r8.BestScore

	// Continuous phases via SPSA under the same budget.
	scenC := DefaultSISO(seed)
	linkC, err := scenC.Build()
	if err != nil {
		return nil, err
	}
	evC := &control.ContinuousLinkEvaluator{Link: linkC, Objective: control.MaxMinSNR{}}
	rc, err := (control.SPSA{Rng: rand.New(rand.NewPCG(seed, 82)), Iterations: budget / 2, Restarts: 2}).
		Search(linkC.Array, evC.Eval, budget)
	if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
		return nil, err
	}
	res.ContinuousDB = rc.BestScore

	// Quantize the continuous winner onto the SP4T bank and re-measure.
	q := linkC.Array.QuantizeContinuous(rc.Best)
	csi, err := linkC.MeasureCSI(q, 0)
	if err != nil {
		return nil, err
	}
	res.QuantizedDB = (control.MaxMinSNR{}).Score(csi)
	return res, nil
}

// Print renders the comparison.
func (r *ContinuousAblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A4 (§4.1): continuously-variable phases vs discrete banks (max-min SNR)\n")
	fmt.Fprintf(w, "%-34s  %-10s\n", "controller", "best dB")
	fmt.Fprintf(w, "%-34s  %-10.2f\n", "terminated baseline", r.BaselineDB)
	fmt.Fprintf(w, "%-34s  %-10.2f\n", "SP4T bank, exhaustive (64 meas)", r.Discrete3DB)
	fmt.Fprintf(w, "%-34s  %-10.2f\n", fmt.Sprintf("8-phase bank, greedy (%d meas)", r.Budget), r.Discrete8DB)
	fmt.Fprintf(w, "%-34s  %-10.2f\n", fmt.Sprintf("continuous, SPSA (%d meas)", r.Budget), r.ContinuousDB)
	fmt.Fprintf(w, "%-34s  %-10.2f\n", "continuous winner quantized to SP4T", r.QuantizedDB)
}
