package experiments

import (
	"errors"

	"press/internal/control"
	"press/internal/element"
	"press/internal/inverse"
	"press/internal/radio"
)

// faultGains measures the max-min-SNR gain over the healthy baseline for
// a measurement-driven greedy controller and a model-guided controller,
// both running on a link whose array suffers the given faults.
func faultGains(seed uint64, faults element.Faults) (measured, model float64, err error) {
	build := func() (*linkWithBaseline, error) {
		scen := DefaultSISO(seed)
		scen.NumElements = 6
		link, err := scen.Build()
		if err != nil {
			return nil, err
		}
		link.Faults = faults
		ev := &control.Evaluator{Goals: []control.Goal{{Link: link, Objective: control.MaxMinSNR{}}}}
		base, ok := link.Array.AllTerminated()
		if !ok {
			base = make(element.Config, link.Array.N())
		}
		baseline, err := ev.Eval(base)
		if err != nil {
			return nil, err
		}
		return &linkWithBaseline{link: link, ev: ev, baseline: baseline}, nil
	}

	// Measurement-driven greedy.
	lb, err := build()
	if err != nil {
		return 0, 0, err
	}
	r, err := instrument(control.Greedy{Rng: newSeededRand(seed, 0xfa01), Restarts: 2}).
		Search(lb.link.Array, lb.ev.Eval, 300)
	if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
		return 0, 0, err
	}
	measured = r.BestScore - lb.baseline

	// Model-guided: the inverse problem's model assumes a healthy array.
	lb2, err := build()
	if err != nil {
		return 0, 0, err
	}
	prob := &inverse.Problem{
		Env:   lb2.link.Env,
		TX:    lb2.link.TX.Node,
		RX:    lb2.link.RX.Node,
		Array: lb2.link.Array,
		Grid:  lb2.link.Grid,
	}
	mg := control.ModelGuided{Problem: prob, RefinePasses: 1}
	r2, err := instrument(mg).Search(lb2.link.Array, lb2.ev.Eval, 300)
	if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
		return 0, 0, err
	}
	model = r2.BestScore - lb2.baseline
	return measured, model, nil
}

type linkWithBaseline struct {
	link     *radio.Link
	ev       *control.Evaluator
	baseline float64
}
