package element

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/geom"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// incidentFriis is the amplitude a lossless |Γ| = 1 reflector at e would
// give the path tx → e → rx with no blockers: the free-space amplitudes
// of both hops times the four antenna gains along them.
func incidentFriis(tx, rx propagation.Node, e *Element) float64 {
	gain := func(p rfphys.Pattern, dir geom.Vec) float64 {
		if p == nil {
			return 1
		}
		return p.Gain(dir)
	}
	aod := e.Pos.Sub(tx.Pos).Unit()
	aoa := rx.Pos.Sub(e.Pos).Unit()
	return rfphys.FriisAmplitude(e.Pos.Dist(tx.Pos), lambda) * rfphys.FriisAmplitude(rx.Pos.Dist(e.Pos), lambda) *
		gain(tx.Pattern, aod) * gain(rx.Pattern, aoa.Scale(-1)) *
		gain(e.Pattern, aod.Scale(-1)) * gain(e.Pattern, aoa)
}

// TestPassivity: a passive element (LossDB ≥ 0, no active gain) reflects
// with |Γ| ≤ 1 in every state of every switch bank, at every continuous
// phase and under every fault kind, and none of its paths is stronger
// than its incident Friis product, with or without blockers in the way.
// An active element is the control: its path does exceed the product.
func TestPassivity(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	env := propagation.NewEnvironment(6, 5, 3)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(2.5, 1.5, 0), geom.V(3, 3.5, 2.2), 12),
		geom.NewBlocker(geom.V(4, 0.5, 0), geom.V(4.3, 1.5, 2.5), 0))
	at := func() geom.Vec { return geom.V(0.2+5.6*rng.Float64(), 0.2+4.6*rng.Float64(), 0.2+2.6*rng.Float64()) }
	patterns := func() rfphys.Pattern {
		switch rng.IntN(4) {
		case 0:
			return nil
		case 1:
			return rfphys.Omni{PeakGainDBi: 2}
		case 2:
			return rfphys.Parabolic{Boresight: at().Sub(at()), PeakGainDBi: 14, BeamwidthDeg: 21, SidelobeDB: -13}
		}
		return rfphys.LogPeriodic{Boresight: at().Sub(at()), PeakGainDBi: 6, BeamwidthDeg: 65}
	}
	banks := [][]State{SP4TStates(), FourPhaseStates(), NPhaseStates(1, false), NPhaseStates(8, true),
		{{Kind: Reflect, PhaseRad: -1e6}, {Kind: Reflect, PhaseRad: math.Copysign(0, -1)}, {Kind: Terminate}}}
	phases := []float64{Off, 0, math.Copysign(0, -1), math.Pi, -3 * math.Pi, 1e6, math.MaxFloat64}

	check := func(name string, e *Element, tx, rx propagation.Node, paths []propagation.Path) {
		t.Helper()
		if len(paths) > 1 {
			t.Fatalf("%s: one element gave %d paths", name, len(paths))
		}
		bound := incidentFriis(tx, rx, e)
		for _, p := range paths {
			if g := cmplx.Abs(p.Gain); !(g <= bound*(1+1e-12)) {
				t.Fatalf("%s: path gain %g exceeds the incident Friis product %g (loss %v dB)", name, g, bound, e.LossDB)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		e := &Element{Pos: at(), Pattern: patterns(), LossDB: []float64{0, 0.5, 1, 3, 20}[rng.IntN(5)],
			States: banks[rng.IntN(len(banks))]}
		tx := propagation.Node{Pos: at(), Pattern: patterns()}
		rx := propagation.Node{Pos: at(), Pattern: patterns()}
		arr := NewArray(e)
		for si := range e.States {
			if r, _ := e.Reflection(si, lambda); cmplx.Abs(r) > 1 {
				t.Fatalf("state %v: |Γ| = %v", e.States[si], cmplx.Abs(r))
			}
			check("state", e, tx, rx, arr.Paths(env, tx, rx, Config{si}, lambda))
			faults := []Fault{{Kind: Dead}}
			for stuck := range e.States {
				faults = append(faults, Fault{Kind: StuckAt, State: stuck})
			}
			for _, f := range faults {
				check("fault", e, tx, rx, arr.PathsWithFaults(env, tx, rx, Config{si}, Faults{0: f}, lambda))
			}
		}
		for _, ph := range append(phases, 2*math.Pi*rng.NormFloat64()) {
			if r, _ := e.ContinuousReflection(ph, lambda); cmplx.Abs(r) > 1 {
				t.Fatalf("phase %v: |Γ| = %v", ph, cmplx.Abs(r))
			}
			check("continuous", e, tx, rx, arr.ContinuousPaths(env, tx, rx, ContinuousConfig{ph}, lambda))
		}
	}

	// The control: 10 dB of active gain with no blocker in the way beats
	// the passive bound, so the check above is not vacuous.
	e := NewActiveElement(geom.V(1, 1, 1.5), 10)
	tx := propagation.Node{Pos: geom.V(1, 4, 1.5)}
	rx := propagation.Node{Pos: geom.V(2, 4, 1.5)}
	paths := NewArray(e).Paths(env, tx, rx, Config{0}, lambda)
	if len(paths) != 1 || cmplx.Abs(paths[0].Gain) <= incidentFriis(tx, rx, e) {
		t.Fatalf("active element's paths %v do not exceed the passive bound %g", paths, incidentFriis(tx, rx, e))
	}
}
