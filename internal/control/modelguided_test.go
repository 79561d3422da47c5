package control

import (
	"errors"
	"math"
	"testing"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/inverse"
	"press/internal/obs"
	"press/internal/obs/scope"
	"press/internal/radio"
)

// modelProblem builds an inverse.Problem sharing a link's scene.
func modelProblem(link *radio.Link) *inverse.Problem {
	return &inverse.Problem{
		Env:   link.Env,
		TX:    link.TX.Node,
		RX:    link.RX.Node,
		Array: link.Array,
		Grid:  link.Grid,
	}
}

func TestModelGuidedBeatsBaseline(t *testing.T) {
	link := controlTestbed(t, 61)
	prob := modelProblem(link)

	ev := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}}
	term, _ := link.Array.AllTerminated()
	baseline, err := ev.Eval(term)
	if err != nil {
		t.Fatal(err)
	}
	mg := ModelGuided{Problem: prob}
	res, err := mg.Search(link.Array, ev.Eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore < baseline-1 {
		t.Errorf("model-guided (%.2f) below baseline (%.2f)", res.BestScore, baseline)
	}
	// The warm start plus refinement must undercut the exhaustive 64.
	if res.Evaluations >= 64 {
		t.Errorf("model-guided used %d measurements; pruning is the point", res.Evaluations)
	}
}

func TestModelGuidedCompetitiveWithExhaustive(t *testing.T) {
	link := controlTestbed(t, 62)
	evEx := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}}
	exact, err := (Exhaustive{}).Search(link.Array, evEx.Eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	evMG := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}}
	mg := ModelGuided{Problem: modelProblem(link)}
	res, err := mg.Search(link.Array, evMG.Eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore < exact.BestScore-6 {
		t.Errorf("model-guided %.2f far below exhaustive %.2f", res.BestScore, exact.BestScore)
	}
}

func TestModelGuidedCustomTarget(t *testing.T) {
	link := controlTestbed(t, 63)
	called := false
	mg := ModelGuided{
		Problem: modelProblem(link),
		Target: func(baseline []complex128) []complex128 {
			called = true
			return inverse.TargetNotch(baseline, 0, len(baseline)/2, 15)
		},
		RefinePasses: 1,
	}
	ev := &Evaluator{Goals: []Goal{{Link: link, Objective: HalfBandContrast{PreferLower: false}}}}
	if _, err := mg.Search(link.Array, ev.Eval, 0); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("custom target not used")
	}
}

func TestModelGuidedValidation(t *testing.T) {
	link := controlTestbed(t, 64)
	ev := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}}
	if _, err := (ModelGuided{}).Search(link.Array, ev.Eval, 0); err == nil {
		t.Error("missing Problem accepted")
	}
	other := element.NewArray(element.NewOmniElement(link.TX.Node.Pos))
	mg := ModelGuided{Problem: modelProblem(link)}
	if _, err := mg.Search(other, ev.Eval, 0); err == nil {
		t.Error("mismatched array accepted")
	}
}

// TestModelGuidedRejectsDegenerateInput: a problem with an invalid grid
// or environment, geometry that is not finite, or a node outside the
// room is an error from Search, returned before anything is traced or
// measured.
func TestModelGuidedRejectsDegenerateInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(p *inverse.Problem)
	}{
		{"NaN TX position", func(p *inverse.Problem) { p.TX.Pos.X = nan }},
		{"+Inf RX velocity", func(p *inverse.Problem) { p.RX.Velocity.Y = inf }},
		{"NaN grid center", func(p *inverse.Problem) { p.Grid.CenterHz = nan }},
		{"zero room", func(p *inverse.Problem) { p.Env.Room = geom.Room{} }},
		{"TX behind a wall", func(p *inverse.Problem) { p.TX.Pos.X = -3 }},
		{"TX 100 m outside", func(p *inverse.Problem) { p.TX.Pos = geom.V(106, 105, 1.5) }},
		{"TX on the wall", func(p *inverse.Problem) { p.TX.Pos.X = 0 }},
		{"element outside", func(p *inverse.Problem) { p.Array.Elements[0].Pos.Z = -0.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			link := controlTestbed(t, 66)
			reg := obs.NewRegistry()
			link.Env.AttachScope(scope.Adopt("", reg, nil, nil, nil, nil))
			p := modelProblem(link)
			tc.edit(p)
			evals := 0
			eval := func(element.Config) (float64, error) { evals++; return 0, nil }
			if _, err := (ModelGuided{Problem: p}).Search(link.Array, eval, 0); err == nil {
				t.Error("Search accepted")
			}
			if evals != 0 {
				t.Errorf("Search measured %d configurations", evals)
			}
			if n := reg.Counter("propagation_traces_total").Value(); n != 0 {
				t.Errorf("traced %d times before rejecting", n)
			}
		})
	}
}

func TestModelGuidedBudget(t *testing.T) {
	link := controlTestbed(t, 65)
	ev := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}}
	mg := ModelGuided{Problem: modelProblem(link), RefinePasses: 5}
	res, err := mg.Search(link.Array, ev.Eval, 4)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if res.Evaluations != 4 {
		t.Errorf("spent %d with budget 4", res.Evaluations)
	}
}
