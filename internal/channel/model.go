// Package channel holds one antenna pair's channel in superposition form,
// the decomposition the paper's §2 inverse problem rests on:
//
//	H(cfg, f, t) = H_env(f, t) + Σ_i B_{i,cfg_i}(f, t)
//
// Path geometry does not depend on the array configuration, and each
// element contributes one path whose gain and stub delay are fixed per
// state, so the sum is exact. The simulator (internal/radio) measures
// through a Model, and the model-guided controller (internal/inverse)
// solves against the same Model.
package channel

import (
	"fmt"
	"math"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/obs/prof"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// Model is one antenna pair's superposition table, built once per
// placement; a static sounding then copies the environment sum and adds
// one subcarrier vector per element.
//
// Every entry is built with propagation.ResponseAt's own expression and
// summed in its order (environment paths in TracePaths order, then
// elements in array order), so on a static link the result is
// bit-identical to propagation.Response over the environment paths plus
// element.Array.Paths. When a path has a Doppler shift the per-path terms
// are kept and each is rotated by one phasor per sounding instead of one
// per subcarrier; that agrees with the reference to rounding (within
// 1e-12 relative), not bit for bit, except at t = 0, where it is exact.
type Model struct {
	arr    *element.Array // the array the element table was built for
	freqs  []float64
	lambda float64
	// envPaths are the traced environment paths; a Build for another
	// array reuses them.
	envPaths []propagation.Path
	// moving is set when any path has a Doppler shift.
	moving bool
	// env is the environment's per-subcarrier sum on a static link.
	env []complex128
	// envTerms and envDoppler hold each environment path's subcarrier
	// terms and Doppler shift on a moving link.
	envTerms   [][]complex128
	envDoppler []float64
	elems      []elementTerms
}

// elementTerms is one element's share of the table.
type elementTerms struct {
	// path is the element's geometric path at unit reflection and no
	// stub delay (propagation.ElementPath), not culled; ok is false when
	// the element sits on an endpoint. Every state's path, discrete or
	// continuous, is path.Reflect of the state's reflection, with the
	// same Doppler shift: it depends on geometry only.
	path propagation.Path
	ok   bool
	// states holds one subcarrier vector per state; nil where the state's
	// path does not exist (terminated, too weak, or on an endpoint).
	states [][]complex128
}

// Build checks the geometry, then returns the channel model of every
// antenna pair, rx-major: models[i*len(tx)+j] is tx[j]→rx[i]. arr may be
// nil (a bare link). prev, when non-nil, holds an earlier Build's models
// for the same environment, antennas and grid; their traced environment
// paths are reused, so only the element tables are rebuilt (an Array
// swap). Otherwise each pair's environment is traced once, accounted to
// path_trace by env.Prof. The table build is accounted to path_trace on
// pc. An invalid grid or environment, a position or velocity that is not
// finite, or a node outside the room is an error, returned before
// anything is traced.
func Build(env *propagation.Environment, tx, rx []propagation.Node, arr *element.Array,
	grid ofdm.Grid, pc *prof.Collector, prev []*Model) ([]*Model, error) {

	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if err := checkGeometry(env, tx, rx, arr); err != nil {
		return nil, err
	}
	lambda := rfphys.Wavelength(grid.CenterHz)
	envPaths := make([][]propagation.Path, len(rx)*len(tx))
	for p := range envPaths {
		if prev != nil {
			envPaths[p] = prev[p].envPaths
			continue
		}
		// Traced before the build span opens: TracePaths opens its own
		// path_trace span on env.Prof, which may be pc, and nested spans
		// would count the trace twice.
		envPaths[p] = propagation.TracePaths(env, tx[p%len(tx)], rx[p/len(tx)], lambda)
	}
	sp := pc.Start(prof.PhaseTrace)
	freqs := grid.Frequencies()
	models := make([]*Model, len(envPaths))
	var kept, culled int
	for p := range models {
		m := newModel(env, tx[p%len(tx)], rx[p/len(tx)], envPaths[p], arr, freqs, lambda)
		k, c := m.vectors()
		kept, culled = kept+k, culled+c
		models[p] = m
	}
	pc.Add(prof.PhaseTrace, prof.AuxImages, int64(kept+culled))
	pc.Add(prof.PhaseTrace, prof.AuxPathsKept, int64(kept))
	pc.Add(prof.PhaseTrace, prof.AuxPathsCulled, int64(culled))
	sp.End()
	return models, nil
}

// newModel builds the table for tx→rx from the traced environment paths
// and arr (possibly nil). Each element's geometry is built once, by
// propagation.ElementPath; every state's path is derived from it by
// Path.Reflect, which applies the -180 dB floor per state. That is
// bit-identical to propagation.BistaticPath per state, including for an
// active element whose unit-reflection path is below the floor while an
// amplified state's is not.
func newModel(env *propagation.Environment, tx, rx propagation.Node, envPaths []propagation.Path,
	arr *element.Array, freqs []float64, lambda float64) *Model {

	m := &Model{arr: arr, freqs: freqs, lambda: lambda, envPaths: envPaths}
	if arr != nil {
		m.elems = make([]elementTerms, arr.N())
		for i, e := range arr.Elements {
			et := &m.elems[i]
			et.states = make([][]complex128, e.NumStates())
			et.path, et.ok = propagation.ElementPath(env, tx, rx, e.Pos, e.Pattern, lambda)
			if !et.ok {
				continue
			}
			m.moving = m.moving || et.path.DopplerHz != 0
			for si := range et.states {
				if p, ok := et.path.Reflect(e.Reflection(si, lambda)); ok {
					et.states[si] = pathTerms(p, freqs)
				}
			}
		}
	}
	for _, p := range envPaths {
		m.moving = m.moving || p.DopplerHz != 0
	}
	if !m.moving {
		m.env = make([]complex128, len(freqs))
		for k, f := range freqs {
			m.env[k] = propagation.ResponseAt(envPaths, f, 0)
		}
		return m
	}
	m.envTerms = make([][]complex128, len(envPaths))
	m.envDoppler = make([]float64, len(envPaths))
	for l, p := range envPaths {
		m.envTerms[l] = pathTerms(p, freqs)
		m.envDoppler[l] = p.DopplerHz
	}
	return m
}

// checkGeometry returns an error when the geometry a model is built from
// is invalid: env fails Validate (it may have been edited since the link
// was made), a position or velocity is not finite, a TX or RX node (one
// each on a SISO link, the antennas of a MIMO link) is not strictly
// inside the room, or an element of arr (arr may be nil) is outside it.
// A NaN or ±Inf coordinate traces to NaN paths, and the image method
// mirrors each endpoint across walls it must lie within; either would
// otherwise measure with a nil error. Elements are wall-mounted, so the
// boundary is theirs.
func checkGeometry(env *propagation.Environment, tx, rx []propagation.Node, arr *element.Array) error {
	if err := env.Validate(); err != nil {
		return err
	}
	for _, side := range [...]struct {
		name  string
		nodes []propagation.Node
	}{{"TX", tx}, {"RX", rx}} {
		for i, n := range side.nodes {
			var what, why string
			var v geom.Vec
			switch {
			case !finite(n.Pos):
				what, v, why = "position", n.Pos, "is not finite"
			case !finite(n.Velocity):
				what, v, why = "velocity", n.Velocity, "is not finite"
			case !interior(env.Room, n.Pos):
				what, v, why = "position", n.Pos, fmt.Sprintf("is not strictly inside the %v room", env.Room.Size)
			default:
				continue
			}
			who := side.name
			if len(side.nodes) > 1 {
				who = fmt.Sprintf("%s antenna %d", side.name, i)
			}
			return fmt.Errorf("channel: %s %s %v %s", who, what, v, why)
		}
	}
	if arr != nil {
		for i, e := range arr.Elements {
			switch {
			case !finite(e.Pos):
				return fmt.Errorf("channel: element %d position %v is not finite", i, e.Pos)
			case !env.Room.Contains(e.Pos):
				return fmt.Errorf("channel: element %d position %v is outside the %v room", i, e.Pos, env.Room.Size)
			}
		}
	}
	return nil
}

// interior reports whether p lies strictly inside room.
func interior(room geom.Room, p geom.Vec) bool {
	return p.X > 0 && p.X < room.Size.X &&
		p.Y > 0 && p.Y < room.Size.Y &&
		p.Z > 0 && p.Z < room.Size.Z
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
func (m *Model) vectors() (kept, culled int) {
	for _, et := range m.elems {
		for _, v := range et.states {
			if v == nil {
				culled++
			} else {
				kept++
			}
		}
	}
	return kept, culled
}

// Array returns the array the model's element table was built for.
func (m *Model) Array() *element.Array { return m.arr }

// Unit returns a new vector holding element i's response on each
// subcarrier at unit reflection (phase 0, amplitude 1): the i-th column
// of the inverse problem's basis. It is nil when that path does not exist
// or is below the -180 dB floor.
func (m *Model) Unit(i int) []complex128 {
	et := &m.elems[i]
	if !et.ok {
		return nil
	}
	p, ok := et.path.Reflect(1, 0)
	if !ok {
		return nil
	}
	return pathTerms(p, m.freqs)
}

// Narrowband returns the inverse problem's linear model over m's
// elements as a static table: its environment is env, and its vector for
// element i in state s is B_i·φ_{i,s}, Unit(i) scaled by the state's
// carrier-frequency phasor (element.Element.Phasor). It takes the stub
// delay as a phase that is flat across the band, so it approximates m;
// Sum on it at t = 0 evaluates env + Σ_i B_i·φ_{i,cfg_i}. A vector that is
// identically zero (a terminated state or a missing path) is left out,
// which changes at most the sign of an exact zero in a sum.
func (m *Model) Narrowband(env []complex128) *Model {
	nb := &Model{arr: m.arr, env: env, elems: make([]elementTerms, len(m.elems))}
	for i, e := range m.arr.Elements {
		states := make([][]complex128, e.NumStates())
		nb.elems[i].states = states
		u := m.Unit(i)
		if u == nil {
			continue
		}
		for si := range states {
			ph := e.Phasor(si, m.lambda)
			if ph == 0 {
				continue
			}
			v := make([]complex128, len(u))
			for k, b := range u {
				v[k] = b * ph
			}
			states[si] = v
		}
	}
	return nb
}

// Environment writes the environment's response at t into h
// (len(freqs)) and returns the number of vectors summed. On a moving
// link the paths go through a rotator, which adds each run of four
// paths with a Doppler shift in one pass (DESIGN.md §12, §15).
func (m *Model) Environment(h []complex128, t float64) int {
	r := rotator{h: h, t: t}
	n := m.environment(&r)
	r.flush()
	return n
}

// environment starts r's sum with the environment: the static sum
// copied into r.h, or on a moving link each path's terms queued on r
// after r.h is cleared. It returns the number of vectors summed.
func (m *Model) environment(r *rotator) int {
	if !m.moving {
		copy(r.h, m.env)
		return 1
	}
	clear(r.h)
	for l, v := range m.envTerms {
		r.add(v, m.envDoppler[l])
	}
	return len(m.envTerms)
}

// Sum writes the response under the discrete configuration cfg, with
// faults applied, at time t into h (len(freqs)) and returns the number
// of vectors summed. cfg and faults must have passed ValidateSelection
// against the model's array; a nil array ignores cfg. The selected
// element vectors follow the environment paths through the same
// rotator, so on a moving link the four-path passes run across both.
func (m *Model) Sum(h []complex128, cfg element.Config, faults element.Faults, t float64) int {
	r := rotator{h: h, t: t}
	n := m.environment(&r)
	for i := range m.elems {
		si := cfg[i]
		if fault, broken := faults[i]; broken {
			switch fault.Kind {
			case element.StuckAt:
				si = fault.State
			case element.Dead:
				continue
			}
		}
		et := &m.elems[i]
		if v := et.states[si]; v != nil {
			r.add(v, et.path.DopplerHz)
			n++
		}
	}
	r.flush()
	return n
}

// SumContinuous is Sum for a continuous configuration: the environment
// comes from the table, and each active element's terms are computed
// with propagation.ResponseAt's expression from the element's path under
// the phase's reflection and stub delay. Faults do not apply, as in
// element.Array.ContinuousPaths.
func (m *Model) SumContinuous(h []complex128, phases element.ContinuousConfig, t float64) int {
	n := m.Environment(h, t)
	for i := range m.elems {
		et := &m.elems[i]
		if !et.ok {
			continue
		}
		p, ok := et.path.Reflect(m.arr.Elements[i].ContinuousReflection(phases[i], m.lambda))
		if !ok {
			continue
		}
		for k, f := range m.freqs {
			phase := -2 * math.Pi * f * p.Delay
			if p.DopplerHz != 0 {
				phase += 2 * math.Pi * p.DopplerHz * t
			}
			h[k] += p.Gain * rfphys.Cis(phase)
		}
		n++
	}
	return n
}

// ValidateSelection checks a configuration against arr before any
// evaluation: the discrete cfg with its fault plan, or, when continuous
// is set, the continuous phases. A nil array accepts anything, as it
// contributes no paths.
func ValidateSelection(arr *element.Array, cfg element.Config, faults element.Faults,
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
