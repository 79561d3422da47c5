package control

import (
	"fmt"
	"math"

	"press/internal/element"
	"press/internal/inverse"
)

// ModelGuided is a searcher that exploits a propagation model when one is
// available — §4.2's pruning idea taken to its limit: instead of blindly
// probing the M^N space over the air, solve the inverse problem offline
// (free: no measurements), start from that configuration, and spend the
// scarce measurement budget on local refinement around it. When the model
// is wrong the refinement still converges to a local optimum; when it is
// right, one measurement can suffice.
type ModelGuided struct {
	// Problem carries the model (environment, endpoints, array, grid).
	Problem *inverse.Problem
	// Target builds the desired channel from the model's baseline; nil
	// means "flatten at the baseline's RMS amplitude".
	Target func(baseline []complex128) []complex128
	// RefinePasses bounds the per-element measured refinement
	// (default 2).
	RefinePasses int
}

// Name implements Searcher.
func (ModelGuided) Name() string { return "model-guided" }

// Search implements Searcher. The inverse solve costs zero measurements;
// only the warm start's evaluation and the refinement touch eval.
func (m ModelGuided) Search(arr *element.Array, eval EvalFunc, budget int) (*Result, error) {
	if m.Problem == nil {
		return nil, fmt.Errorf("control: ModelGuided needs a Problem")
	}
	if m.Problem.Array != arr {
		return nil, fmt.Errorf("control: ModelGuided problem array differs from the searched array")
	}
	baseline, err := m.Problem.Baseline()
	if err != nil {
		return nil, fmt.Errorf("control: inverse model: %w", err)
	}
	target := m.targetFor(baseline)
	sol, err := inverse.Solve(m.Problem, target)
	if err != nil {
		return nil, fmt.Errorf("control: inverse solve: %w", err)
	}

	t := newTracker(eval, budget)
	score, err := t.measure(sol.Config)
	if err != nil {
		return finishOrFail(t, err)
	}

	passes := m.RefinePasses
	if passes < 1 {
		passes = 2
	}
	current := sol.Config.Clone()
	for pass := 0; pass < passes && !t.done(); pass++ {
		changed := false
		for i := 0; i < arr.N() && !t.done(); i++ {
			bestState, bestScore := current[i], score
			for si := 0; si < arr.Elements[i].NumStates() && !t.done(); si++ {
				if si == current[i] {
					continue
				}
				cand := current.Clone()
				cand[i] = si
				s, err := t.measure(cand)
				if err != nil {
					return finishOrFail(t, err)
				}
				if s > bestScore {
					bestState, bestScore = si, s
				}
			}
			if bestState != current[i] {
				current[i], score = bestState, bestScore
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return t.result(t.done())
}

// targetFor resolves the target channel.
func (m ModelGuided) targetFor(baseline []complex128) []complex128 {
	if m.Target != nil {
		return m.Target(baseline)
	}
	// Default: flatten at the RMS amplitude — the link-enhancement shape.
	var ss float64
	for _, h := range baseline {
		ss += real(h)*real(h) + imag(h)*imag(h)
	}
	rms := 0.0
	if len(baseline) > 0 {
		rms = math.Sqrt(ss / float64(len(baseline)))
	}
	return inverse.TargetFlat(baseline, rms)
}
