package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"

	"press/internal/control"
	"press/internal/element"
	"press/internal/radio"
)

// baselineAndBest measures the all-terminated baseline (or state-0 when
// no absorber exists) and runs an exhaustive max-min-SNR search.
func baselineAndBest(link *radio.Link) (baseline, best float64, evals int, err error) {
	ev := &control.Evaluator{Goals: []control.Goal{{Link: link, Objective: control.MaxMinSNR{}}}}
	base, ok := link.Array.AllTerminated()
	if !ok {
		base = make(element.Config, link.Array.N())
	}
	baseline, err = ev.Eval(base)
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := instrument(control.Exhaustive{}).Search(link.Array, ev.Eval, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	return baseline, res.BestScore, res.Evaluations, nil
}

// PhaseAblationRow is one phase-granularity setting's outcome.
type PhaseAblationRow struct {
	// Phases is M, the number of reflective phase levels (plus the off
	// state).
	Phases int
	// Configs is the size of the configuration space.
	Configs int
	// BaselineDB and BestDB are the terminated-baseline and optimized
	// worst-subcarrier SNR.
	BaselineDB, BestDB float64
	// GainDB is the improvement.
	GainDB float64
}

// PhaseAblationResult tests §4.1's conjecture that "around eight phase
// values along with the off state may provide sufficient resolution".
type PhaseAblationResult struct {
	Rows []PhaseAblationRow
}

// RunPhaseAblation sweeps the phase granularity at a fixed placement.
func RunPhaseAblation(seed uint64, phaseCounts []int) (*PhaseAblationResult, error) {
	if len(phaseCounts) == 0 {
		phaseCounts = []int{2, 3, 4, 8, 16}
	}
	res := &PhaseAblationResult{}
	for _, m := range phaseCounts {
		scen := DefaultSISO(seed)
		scen.ElementStates = element.NPhaseStates(m, true)
		link, err := scen.Build()
		if err != nil {
			return nil, err
		}
		base, best, evals, err := baselineAndBest(link)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, PhaseAblationRow{
			Phases:     m,
			Configs:    evals,
			BaselineDB: base,
			BestDB:     best,
			GainDB:     best - base,
		})
	}
	return res, nil
}

// Print renders the table.
func (r *PhaseAblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A1 (§4.1): reflection-phase granularity, 3 elements, max-min-SNR objective\n")
	fmt.Fprintf(w, "%-8s  %-9s  %-13s  %-11s  %-9s\n", "phases", "configs", "baseline dB", "best dB", "gain dB")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d  %-9d  %-13.2f  %-11.2f  %-9.2f\n",
			row.Phases, row.Configs, row.BaselineDB, row.BestDB, row.GainDB)
	}
}

// ElementAblationRow is one (count, pattern) outcome.
type ElementAblationRow struct {
	Elements           int
	Pattern            string
	BaselineDB, BestDB float64
	GainDB             float64
}

// ElementAblationResult tests §4.1's element count / directionality
// trade: "PRESS could use either few well-placed directional antennas or
// many randomly placed but less directional antennas".
type ElementAblationResult struct {
	Rows []ElementAblationRow
}

// RunElementAblation sweeps array size for both element antennas.
func RunElementAblation(seed uint64, counts []int) (*ElementAblationResult, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 3, 4, 5}
	}
	res := &ElementAblationResult{}
	for _, pattern := range []string{"parabolic", "omni"} {
		for _, n := range counts {
			scen := DefaultSISO(seed)
			scen.NumElements = n
			scen.ElementPattern = pattern
			link, err := scen.Build()
			if err != nil {
				return nil, err
			}
			base, best, _, err := baselineAndBest(link)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, ElementAblationRow{
				Elements:   n,
				Pattern:    pattern,
				BaselineDB: base,
				BestDB:     best,
				GainDB:     best - base,
			})
		}
	}
	return res, nil
}

// Print renders the table.
func (r *ElementAblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A2 (§4.1): element count and directionality, max-min-SNR objective\n")
	fmt.Fprintf(w, "%-9s  %-10s  %-13s  %-11s  %-9s\n", "elements", "pattern", "baseline dB", "best dB", "gain dB")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-9d  %-10s  %-13.2f  %-11.2f  %-9.2f\n",
			row.Elements, row.Pattern, row.BaselineDB, row.BestDB, row.GainDB)
	}
}

// SearchAblationRow is one algorithm's outcome at a fixed budget.
type SearchAblationRow struct {
	Algorithm   string
	Budget      int
	Evaluations int
	BestDB      float64
	// FracOfExhaustive is BestDB − baseline over exhaustiveBest − baseline.
	FracOfExhaustive float64
}

// SearchAblationResult compares the §4.2 search strategies on a space too
// large to enumerate within a coherence budget.
type SearchAblationResult struct {
	Elements      int
	SpaceSize     int
	BaselineDB    float64
	ExhaustiveDB  float64
	ExhaustiveNum int
	Rows          []SearchAblationRow
}

// RunSearchAblation compares searchers on an 8-element SP4T array (4⁸ =
// 65536 configurations) with a measurement budget per algorithm.
func RunSearchAblation(seed uint64, budget int) (*SearchAblationResult, error) {
	if budget < 1 {
		budget = 200
	}
	scen := DefaultSISO(seed)
	scen.NumElements = 8
	link, err := scen.Build()
	if err != nil {
		return nil, err
	}
	res := &SearchAblationResult{Elements: 8, SpaceSize: link.Array.NumConfigs()}

	// Reference: terminated baseline and full exhaustive optimum.
	base, exhaustive, evals, err := baselineAndBest(link)
	if err != nil {
		return nil, err
	}
	res.BaselineDB, res.ExhaustiveDB, res.ExhaustiveNum = base, exhaustive, evals

	searchers := []control.Searcher{
		control.Random{Rng: rand.New(rand.NewPCG(seed, 1)), Samples: budget},
		control.Greedy{Rng: rand.New(rand.NewPCG(seed, 2)), Restarts: 8},
		control.HillClimb{Rng: rand.New(rand.NewPCG(seed, 3)), Restarts: 4, StepsPerRestart: budget},
		control.Anneal{Rng: rand.New(rand.NewPCG(seed, 4)), Steps: budget},
		control.Genetic{Rng: rand.New(rand.NewPCG(seed, 5)), Pop: 16, Generations: budget / 16},
	}
	span := exhaustive - base
	for _, s := range searchers {
		ev := &control.Evaluator{Goals: []control.Goal{{Link: link, Objective: control.MaxMinSNR{}}}}
		r, err := instrument(s).Search(link.Array, ev.Eval, budget)
		if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name(), err)
		}
		frac := 0.0
		if span > 0 {
			frac = (r.BestScore - base) / span
		}
		res.Rows = append(res.Rows, SearchAblationRow{
			Algorithm:        s.Name(),
			Budget:           budget,
			Evaluations:      r.Evaluations,
			BestDB:           r.BestScore,
			FracOfExhaustive: frac,
		})
	}
	return res, nil
}

// Print renders the comparison.
func (r *SearchAblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A3 (§4.2): search strategies, %d elements, %d configurations\n",
		r.Elements, r.SpaceSize)
	fmt.Fprintf(w, "Terminated baseline %.2f dB; exhaustive optimum %.2f dB in %d measurements\n\n",
		r.BaselineDB, r.ExhaustiveDB, r.ExhaustiveNum)
	fmt.Fprintf(w, "%-12s  %-8s  %-13s  %-9s  %-18s\n", "algorithm", "budget", "evaluations", "best dB", "frac of exhaustive")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s  %-8d  %-13d  %-9.2f  %-18.2f\n",
			row.Algorithm, row.Budget, row.Evaluations, row.BestDB, row.FracOfExhaustive)
	}
}
