package experiments

import (
	"press/internal/control"
	"press/internal/element"
	"press/internal/inverse"
	"press/internal/radio"
)

// faultGains measures the max-min-SNR gain over the healthy baseline for
// a measurement-driven greedy controller and a model-guided controller,
// both running on a link whose array suffers the given faults.
func faultGains(seed uint64, faults element.Faults) (measured, model float64, err error) {
	build := func() (*radio.Link, *control.Evaluator, error) {
		scen := DefaultSISO(seed)
		scen.NumElements = 6
		link, err := scen.Build()
		if err != nil {
			return nil, nil, err
		}
		link.Faults = faults
		return link, &control.Evaluator{Goals: []control.Goal{{Link: link, Objective: control.MaxMinSNR{}}}}, nil
	}

	// Measurement-driven greedy.
	link, ev, err := build()
	if err != nil {
		return 0, 0, err
	}
	baseline, r, err := ev.Improve(link.Array,
		instrument(control.Greedy{Rng: newSeededRand(seed, 0xfa01), Restarts: 2}), 300)
	if err != nil {
		return 0, 0, err
	}
	measured = r.BestScore - baseline

	// Model-guided: the inverse problem's model assumes a healthy array.
	link, ev, err = build()
	if err != nil {
		return 0, 0, err
	}
	prob := &inverse.Problem{
		Env:   link.Env,
		TX:    link.TX.Node,
		RX:    link.RX.Node,
		Array: link.Array,
		Grid:  link.Grid,
	}
	baseline, r, err = ev.Improve(link.Array,
		instrument(control.ModelGuided{Problem: prob, RefinePasses: 1}), 300)
	if err != nil {
		return 0, 0, err
	}
	model = r.BestScore - baseline
	return measured, model, nil
}
