package radio

import (
	"fmt"
	"math"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// basis is one antenna pair's channel in superposition form. Path
// geometry does not depend on the array configuration, and each element
// contributes one path whose gain and stub delay are fixed per state, so
//
//	H(cfg, f, t) = H_env(f, t) + Σ_i B_{i,cfg_i}(f, t)
//
// exactly. The table is built once per placement; a static sounding then
// copies the environment sum and adds one subcarrier vector per element.
//
// Every entry is built with propagation.ResponseAt's own expression and
// summed in its order (environment paths in TracePaths order, then
// elements in array order), so on a static link the result is
// bit-identical to propagation.Response over Link.Paths. When a path has
// a Doppler shift the per-path terms are kept and each is rotated by one
// phasor per sounding instead of one per subcarrier; that agrees with the
// reference to rounding (within 1e-12 relative), not bit for bit.
type basis struct {
	arr    *element.Array // the array the element table was built for
	freqs  []float64
	lambda float64
	// moving is set when any path has a Doppler shift.
	moving bool
	// env is the environment's per-subcarrier sum on a static link.
	env []complex128
	// envTerms and envDoppler hold each environment path's subcarrier
	// terms and Doppler shift on a moving link.
	envTerms   [][]complex128
	envDoppler []float64
	elems      []elementBasis
}

// elementBasis is one element's share of the table.
type elementBasis struct {
	// states holds one subcarrier vector per state; nil where the path
	// does not exist (terminated, too weak, or on an endpoint).
	states [][]complex128
	// dopplerHz is the unit path's shift, shared by every state: it
	// depends on geometry only.
	dopplerHz float64
	// unit is the element's path at continuous phase 0. A continuous
	// phase changes only the stub delay, never the gain, so every
	// continuous configuration starts from it. unitOK is false when the
	// element has no path; a reflective state then has none either, as
	// Reflection and ContinuousReflection share one amplitude.
	unit   propagation.Path
	unitOK bool
}

// newBasis builds the table for tx→rx: envPaths are the traced
// environment paths, arr (possibly nil) the PRESS array.
func newBasis(env *propagation.Environment, tx, rx propagation.Node, envPaths []propagation.Path,
	arr *element.Array, freqs []float64, lambda float64) *basis {

	b := &basis{arr: arr, freqs: freqs, lambda: lambda}
	if arr != nil {
		b.elems = make([]elementBasis, arr.N())
		for i, e := range arr.Elements {
			eb := &b.elems[i]
			refl, extra := e.ContinuousReflection(0, lambda)
			eb.unit, eb.unitOK = propagation.BistaticPath(env, tx, rx, e.Pos, e.Pattern, refl, extra, lambda)
			eb.dopplerHz = eb.unit.DopplerHz
			b.moving = b.moving || eb.dopplerHz != 0
			eb.states = make([][]complex128, e.NumStates())
			for si := range eb.states {
				refl, extra := e.Reflection(si, lambda)
				if p, ok := propagation.BistaticPath(env, tx, rx, e.Pos, e.Pattern, refl, extra, lambda); ok {
					eb.states[si] = pathTerms(p, freqs)
				}
			}
		}
	}
	for _, p := range envPaths {
		b.moving = b.moving || p.DopplerHz != 0
	}
	if !b.moving {
		b.env = make([]complex128, len(freqs))
		for k, f := range freqs {
			b.env[k] = propagation.ResponseAt(envPaths, f, 0)
		}
		return b
	}
	b.envTerms = make([][]complex128, len(envPaths))
	b.envDoppler = make([]float64, len(envPaths))
	for l, p := range envPaths {
		b.envTerms[l] = pathTerms(p, freqs)
		b.envDoppler[l] = p.DopplerHz
	}
	return b
}

// checkGeometry returns an error when the geometry a basis is built from
// is invalid: env fails Validate (it may have been edited since the link
// was made), or a position or velocity is not finite, among the TX and RX
// nodes (one each on a SISO link, the antennas of a MIMO link) and the
// positions of arr's elements (arr may be nil). A NaN or ±Inf coordinate
// traces to NaN paths, which would otherwise measure as NaN CSI with a
// nil error.
func checkGeometry(env *propagation.Environment, tx, rx []propagation.Node, arr *element.Array) error {
	if err := env.Validate(); err != nil {
		return err
	}
	for _, side := range [...]struct {
		name  string
		nodes []propagation.Node
	}{{"TX", tx}, {"RX", rx}} {
		for i, n := range side.nodes {
			var what string
			var v geom.Vec
			switch {
			case !finite(n.Pos):
				what, v = "position", n.Pos
			case !finite(n.Velocity):
				what, v = "velocity", n.Velocity
			default:
				continue
			}
			who := side.name
			if len(side.nodes) > 1 {
				who = fmt.Sprintf("%s antenna %d", side.name, i)
			}
			return fmt.Errorf("radio: %s %s %v is not finite", who, what, v)
		}
	}
	if arr != nil {
		for i, e := range arr.Elements {
			if !finite(e.Pos) {
				return fmt.Errorf("radio: element %d position %v is not finite", i, e.Pos)
			}
		}
	}
	return nil
}

// finite reports whether every coordinate of v is finite.
func finite(v geom.Vec) bool {
	inf := math.Inf(1)
	return math.Abs(v.X) < inf && math.Abs(v.Y) < inf && math.Abs(v.Z) < inf
}

// pathTerms returns p's static term gain·e^{-j2πfτ} on every frequency,
// with the expression propagation.ResponseAt uses.
func pathTerms(p propagation.Path, freqs []float64) []complex128 {
	out := make([]complex128, len(freqs))
	for k, f := range freqs {
		out[k] = p.Gain * rfphys.Cis(-2*math.Pi*f*p.Delay)
	}
	return out
}

// vectors returns how many (element, state) paths the table holds a
// vector for (kept) and how many do not exist (culled).
func (b *basis) vectors() (kept, culled int) {
	for _, eb := range b.elems {
		for _, v := range eb.states {
			if v == nil {
				culled++
			} else {
				kept++
			}
		}
	}
	return kept, culled
}

// addRotated adds v, rotated by the Doppler phasor at t, into h.
func addRotated(h, v []complex128, dopplerHz, t float64) {
	if dopplerHz == 0 {
		for k := range h {
			h[k] += v[k]
		}
		return
	}
	ph := rfphys.Cis(2 * math.Pi * dopplerHz * t)
	for k := range h {
		h[k] += v[k] * ph
	}
}

// addRotated4 adds v[0..3], each rotated by its nonzero Doppler shift's
// phasor at t, into h in one pass. Every subcarrier gets the four
// additions of four addRotated calls, in the same order, so the result
// is bit-identical to them while h[k] is loaded and stored once.
func addRotated4(h []complex128, v [][]complex128, dopplerHz []float64, t float64) {
	v0, v1, v2, v3 := v[0][:len(h)], v[1][:len(h)], v[2][:len(h)], v[3][:len(h)]
	p0 := rfphys.Cis(2 * math.Pi * dopplerHz[0] * t)
	p1 := rfphys.Cis(2 * math.Pi * dopplerHz[1] * t)
	p2 := rfphys.Cis(2 * math.Pi * dopplerHz[2] * t)
	p3 := rfphys.Cis(2 * math.Pi * dopplerHz[3] * t)
	for k := range h {
		h[k] = h[k] + v0[k]*p0 + v1[k]*p1 + v2[k]*p2 + v3[k]*p3
	}
}

// environment writes the environment's response at t into h and returns
// the number of vectors summed. On a moving link each run of four paths
// that all have a Doppler shift is added in one fused pass; any other
// path goes through addRotated alone (DESIGN.md §12).
func (b *basis) environment(h []complex128, t float64) int {
	if !b.moving {
		copy(h, b.env)
		return 1
	}
	clear(h)
	terms, dop := b.envTerms, b.envDoppler
	for l := 0; l < len(terms); {
		if l+4 <= len(terms) && dop[l] != 0 && dop[l+1] != 0 && dop[l+2] != 0 && dop[l+3] != 0 {
			addRotated4(h, terms[l:l+4], dop[l:l+4], t)
			l += 4
			continue
		}
		addRotated(h, terms[l], dop[l], t)
		l++
	}
	return len(terms)
}

// sum writes the response under the discrete configuration cfg, with
// faults applied, at time t into h (len(b.freqs)) and returns the number
// of vectors summed. cfg and faults must have been validated against the
// array; a nil array ignores cfg.
func (b *basis) sum(h []complex128, cfg element.Config, faults element.Faults, t float64) int {
	n := b.environment(h, t)
	for i := range b.elems {
		si := cfg[i]
		if fault, broken := faults[i]; broken {
			switch fault.Kind {
			case element.StuckAt:
				si = fault.State
			case element.Dead:
				continue
			}
		}
		eb := &b.elems[i]
		if v := eb.states[si]; v != nil {
			addRotated(h, v, eb.dopplerHz, t)
			n++
		}
	}
	return n
}

// sumContinuous is sum for a continuous configuration: the environment
// comes from the table, and each active element's terms are computed
// with propagation.ResponseAt's expression from the element's unit path
// and the phase's stub delay. Faults do not apply, as in
// element.Array.ContinuousPaths.
func (b *basis) sumContinuous(h []complex128, phases element.ContinuousConfig, t float64) int {
	n := b.environment(h, t)
	for i := range b.elems {
		eb := &b.elems[i]
		if !eb.unitOK {
			continue
		}
		refl, extra := b.arr.Elements[i].ContinuousReflection(phases[i], b.lambda)
		if refl == 0 {
			continue
		}
		delay := eb.unit.Delay + extra
		for k, f := range b.freqs {
			phase := -2 * math.Pi * f * delay
			if eb.dopplerHz != 0 {
				phase += 2 * math.Pi * eb.dopplerHz * t
			}
			h[k] += eb.unit.Gain * rfphys.Cis(phase)
		}
		n++
	}
	return n
}

// validateSelection checks a configuration against arr before any
// evaluation: the discrete cfg with its fault plan, or, when continuous
// is set, the continuous phases. A nil array accepts anything, as it
// contributes no paths.
func validateSelection(arr *element.Array, cfg element.Config, faults element.Faults,
	phases element.ContinuousConfig, continuous bool) error {

	if arr == nil {
		return nil
	}
	if continuous {
		return arr.ValidateContinuous(phases)
	}
	if err := arr.Validate(cfg); err != nil {
		return err
	}
	return arr.ValidateFaults(faults)
}
