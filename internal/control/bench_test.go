package control

import (
	"math/rand/v2"
	"testing"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/inverse"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// BenchmarkLinkEvaluatorEval times one search evaluation: Evaluator.Eval
// with a single MaxMinSNR goal (one sounding plus its score) on a warmed
// 8-element SP4T link in a 12×9×3 m room, cycling through 64 fixed
// random configurations. walking moves the receiver at 3 mph, so each sounding
// sums the time-varying channel.
func BenchmarkLinkEvaluatorEval(b *testing.B) {
	for _, bc := range []struct {
		name string
		mph  float64
	}{{"static", 0}, {"walking", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			link := benchLink(b)
			if bc.mph != 0 {
				link.RX.Node.Velocity = geom.V(rfphys.MphToMps(bc.mph), 0, 0)
				link.InvalidateEnvironment()
			}
			rng := rand.New(rand.NewPCG(8, 64))
			cfgs := make([]element.Config, 64)
			for i := range cfgs {
				cfgs[i] = link.Array.ConfigAt(rng.IntN(link.Array.NumConfigs()))
			}
			ev := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}, Timing: radio.PrototypeTiming}
			if _, err := ev.Eval(cfgs[0]); err != nil { // builds the channel model and scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(cfgs[i%len(cfgs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchLink builds an NLoS link with eight parabolic SP4T elements, laid
// out like the experiments' default SISO scenario.
func benchLink(b *testing.B) *radio.Link {
	b.Helper()
	env := propagation.NewEnvironment(12, 9, 3)
	env.AddScatterers(rand.New(rand.NewPCG(1, 0xa11ce)), 10, 35)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(5.6, 4.2, 0), geom.V(5.9, 5.0, 2.2), 35))
	tx := &radio.Radio{
		Node:       propagation.Node{Pos: geom.V(4.75, 4.5, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		TxPowerDBm: 15, NoiseFigureDB: 6,
	}
	rx := &radio.Radio{
		Node:          propagation.Node{Pos: geom.V(7.25, 4.7, 1.3), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		NoiseFigureDB: 6,
	}
	pos, err := element.DefaultPlacement.Place(rand.New(rand.NewPCG(1, 0xe1e)), env.Room, tx.Node.Pos, rx.Node.Pos, 8)
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]*element.Element, len(pos))
	for i, p := range pos {
		elems[i] = element.NewParabolicElement(p, rx.Node.Pos)
	}
	link, err := radio.NewLink(env, tx, rx, ofdm.WiFi20(), element.NewArray(elems...), 1)
	if err != nil {
		b.Fatal(err)
	}
	return link
}

// BenchmarkModelGuidedSearch times one model-guided search on
// benchLink's 8-element scene: the inverse model's baseline, an inverse
// solve (coordinate descent over the 65,536 configurations of the
// narrowband table) and the measured refinement around its answer. The
// measurement is a fixed score of the configuration, so the benchmark
// times the controller's forward model, not soundings.
func BenchmarkModelGuidedSearch(b *testing.B) {
	link := benchLink(b)
	mg := ModelGuided{Problem: &inverse.Problem{
		Env: link.Env, TX: link.TX.Node, RX: link.RX.Node, Array: link.Array, Grid: link.Grid,
	}}
	eval := func(c element.Config) (float64, error) {
		var s float64
		for i, si := range c {
			s += float64((i + 1) * si)
		}
		return s, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mg.Search(link.Array, eval, 0); err != nil {
			b.Fatal(err)
		}
	}
}
