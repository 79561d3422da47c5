package element

import (
	"fmt"
	"math"

	"press/internal/propagation"
	"press/internal/rfphys"
)

// This file implements the §4.1 extension the paper plans to test:
// "continuously-variable phase shifting hardware". A continuous
// configuration assigns each element an arbitrary reflection phase in
// [0, 2π), or turns it off, instead of selecting from a discrete stub
// bank.

// Off is the continuous-phase sentinel for a terminated element.
var Off = math.NaN()

// ContinuousConfig assigns one reflection phase per element, in radians;
// NaN (Off) terminates the element.
type ContinuousConfig []float64

// Clone returns an independent copy.
func (c ContinuousConfig) Clone() ContinuousConfig {
	return append(ContinuousConfig(nil), c...)
}

// Wrap normalizes every phase into [0, 2π), leaving Off entries alone.
func (c ContinuousConfig) Wrap() ContinuousConfig {
	for i, p := range c {
		if math.IsNaN(p) {
			continue
		}
		p = math.Mod(p, 2*math.Pi)
		if p < 0 {
			p += 2 * math.Pi
		}
		c[i] = p
	}
	return c
}

// ContinuousReflection returns the element's complex reflection gain and
// internal stub delay for an arbitrary phase (the continuous analogue of
// Reflection). A NaN phase means terminated.
func (e *Element) ContinuousReflection(phaseRad, lambdaM float64) (complex128, float64) {
	if math.IsNaN(phaseRad) {
		return 0, 0
	}
	amp := rfphys.DBToAmplitude(e.ActiveGainDB - e.LossDB)
	stubLen := phaseRad / (2 * math.Pi) * lambdaM
	return complex(amp, 0), stubLen / rfphys.SpeedOfLight
}

// ValidateContinuous checks a continuous configuration against the array.
func (a *Array) ValidateContinuous(c ContinuousConfig) error {
	if len(c) != a.N() {
		return fmt.Errorf("element: continuous config has %d entries for %d elements", len(c), a.N())
	}
	for i, p := range c {
		if math.IsInf(p, 0) {
			return fmt.Errorf("element: continuous config[%d] is infinite", i)
		}
	}
	return nil
}

// ContinuousPaths returns the array's path contributions under a
// continuous configuration — the forward model for continuously-variable
// phase hardware. Like Paths, it is a test reference.
func (a *Array) ContinuousPaths(env *propagation.Environment, tx, rx propagation.Node,
	c ContinuousConfig, lambdaM float64) []propagation.Path {

	if err := a.ValidateContinuous(c); err != nil {
		panic(err)
	}
	var paths []propagation.Path
	for i, e := range a.Elements {
		refl, extra := e.ContinuousReflection(c[i], lambdaM)
		if p, ok := propagation.BistaticPath(env, tx, rx, e.Pos, e.Pattern, refl, extra, lambdaM); ok {
			paths = append(paths, p)
		}
	}
	return paths
}

// QuantizeContinuous maps a continuous configuration onto the array's
// discrete states: each phase goes to the nearest reflective state (by
// circular distance), Off goes to a Terminate state when the element has
// one (else phase 0). This is how a controller designed for continuous
// hardware would drive the discrete SP4T prototype.
func (a *Array) QuantizeContinuous(c ContinuousConfig) Config {
	if err := a.ValidateContinuous(c); err != nil {
		panic(err)
	}
	cfg := make(Config, a.N())
	for i, e := range a.Elements {
		states := e.states()
		if math.IsNaN(c[i]) {
			cfg[i] = 0
			for si, st := range states {
				if st.Kind == Terminate {
					cfg[i] = si
					break
				}
			}
			continue
		}
		best, bestDist := -1, math.Inf(1)
		for si, st := range states {
			if st.Kind != Reflect {
				continue
			}
			if d := circularDist(st.PhaseRad, c[i]); d < bestDist {
				best, bestDist = si, d
			}
		}
		if best < 0 {
			best = 0 // all-absorber bank: nothing to quantize onto
		}
		cfg[i] = best
	}
	return cfg
}

// circularDist returns the distance between two angles on the circle.
func circularDist(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}
