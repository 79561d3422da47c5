package element

import (
	"fmt"
	"math"

	"press/internal/geom"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// Element is one PRESS element: an antenna at a fixed position whose
// reflection state is electronically switched among States.
type Element struct {
	// Pos is the element's location in the room.
	Pos geom.Vec
	// Pattern is the element antenna's gain pattern; it applies twice to
	// the bistatic path (incidence and re-radiation). Nil means isotropic.
	Pattern rfphys.Pattern
	// LossDB is the element's internal one-pass loss in dB (switch
	// insertion loss, mismatch); a passive element has LossDB ≥ 0.
	LossDB float64
	// ActiveGainDB is extra re-radiation gain for *active* elements
	// (§2's full-duplex obfuscator-style designs); 0 for passive.
	ActiveGainDB float64
	// States is the selectable switch bank; defaults to SP4TStates when
	// empty.
	States []State
}

// states returns the element's switch bank, defaulting to the paper's
// SP4T prototype.
func (e *Element) states() []State {
	if len(e.States) == 0 {
		return SP4TStates()
	}
	return e.States
}

// NumStates returns the number of selectable states.
func (e *Element) NumStates() int { return len(e.states()) }

// Reflection returns the complex reflection gain and the extra internal
// delay of state index si at wavelength lambdaM. A terminated state
// returns (0, 0). The switched phase is realized as stub delay —
// PhaseRad/2π wavelengths of extra round-trip path — so it is physical
// (slightly dispersive across a wide band) rather than an idealized
// frequency-flat rotation.
func (e *Element) Reflection(si int, lambdaM float64) (complex128, float64) {
	st := e.states()[si]
	if st.Kind == Terminate {
		return 0, 0
	}
	amp := rfphys.DBToAmplitude(e.ActiveGainDB - e.LossDB)
	stubLen := st.PhaseRad / (2 * math.Pi) * lambdaM
	return complex(amp, 0), stubLen / rfphys.SpeedOfLight
}

// Phasor returns state si's reflection as one complex coefficient at the
// carrier: its amplitude times e^{-jφ}, where φ is the phase its stub
// delay realizes at wavelength lambdaM; 0 for terminate. The inverse
// problem's linear model treats each state as this frequency-flat
// coefficient.
func (e *Element) Phasor(si int, lambdaM float64) complex128 {
	refl, extraDelay := e.Reflection(si, lambdaM)
	return refl * rfphys.Cis(-2*math.Pi*rfphys.SpeedOfLight/lambdaM*extraDelay)
}

// Array is an ordered set of PRESS elements controlled together.
type Array struct {
	Elements []*Element
}

// NewArray builds an array over the given elements.
func NewArray(elems ...*Element) *Array { return &Array{Elements: elems} }

// N returns the number of elements.
func (a *Array) N() int { return len(a.Elements) }

// Config selects one state index per element. The zero-length Config is
// only valid for an empty array.
type Config []int

// Clone returns an independent copy of c.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Equal reports whether two configurations are identical.
func (c Config) Equal(d Config) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Validate checks that c selects a valid state for every element of a.
func (a *Array) Validate(c Config) error {
	if len(c) != a.N() {
		return fmt.Errorf("element: config has %d entries for %d elements", len(c), a.N())
	}
	for i, si := range c {
		if si < 0 || si >= a.Elements[i].NumStates() {
			return fmt.Errorf("element: config[%d] = %d out of range [0,%d)", i, si, a.Elements[i].NumStates())
		}
	}
	return nil
}

// NumConfigs returns the size of the configuration space Π_i M_i — the
// paper's "MN possibilities" (§4.2). It saturates at math.MaxInt on
// overflow.
func (a *Array) NumConfigs() int {
	total := 1
	for _, e := range a.Elements {
		m := e.NumStates()
		if total > math.MaxInt/m {
			return math.MaxInt
		}
		total *= m
	}
	return total
}

// ConfigAt returns the idx-th configuration in mixed-radix order, where
// element 0 is the least significant digit. It panics when idx is out of
// range.
func (a *Array) ConfigAt(idx int) Config {
	if idx < 0 || idx >= a.NumConfigs() {
		panic(fmt.Sprintf("element: config index %d out of range [0,%d)", idx, a.NumConfigs()))
	}
	c := make(Config, a.N())
	for i, e := range a.Elements {
		m := e.NumStates()
		c[i] = idx % m
		idx /= m
	}
	return c
}

// Index returns the mixed-radix index of configuration c, the inverse of
// ConfigAt. It panics on an invalid configuration.
func (a *Array) Index(c Config) int {
	if err := a.Validate(c); err != nil {
		panic(err)
	}
	idx, scale := 0, 1
	for i, e := range a.Elements {
		idx += c[i] * scale
		scale *= e.NumStates()
	}
	return idx
}

// EachConfig calls fn for every configuration in mixed-radix order. The
// Config passed to fn is reused between calls; clone it to retain. fn
// returning false stops the iteration early.
func (a *Array) EachConfig(fn func(idx int, c Config) bool) {
	n := a.NumConfigs()
	c := make(Config, a.N())
	for idx := 0; idx < n; idx++ {
		if !fn(idx, c) {
			return
		}
		// Increment the mixed-radix counter.
		for i := 0; i < len(c); i++ {
			c[i]++
			if c[i] < a.Elements[i].NumStates() {
				break
			}
			c[i] = 0
		}
	}
}

// AllTerminated returns the "PRESS off" baseline: the configuration
// selecting the absorptive state of every element, so that the array
// contributes no reflection paths. When some element has no Terminate
// state, no configuration switches the array off; it then returns the
// all-state-0 configuration, which stands in as the baseline, with
// ok=false.
func (a *Array) AllTerminated() (Config, bool) {
	c := make(Config, a.N())
	for i, e := range a.Elements {
		found := false
		for si, st := range e.states() {
			if st.Kind == Terminate {
				c[i] = si
				found = true
				break
			}
		}
		if !found {
			return make(Config, a.N()), false
		}
	}
	return c, true
}

// String renders a configuration over array a in the paper's notation,
// e.g. "(π, 0, 0.5π)" or "(0.5π, T, 0.5π)".
func (a *Array) String(c Config) string {
	if err := a.Validate(c); err != nil {
		return fmt.Sprintf("invalid-config(%v)", []int(c))
	}
	parts := make([]string, a.N())
	for i, si := range c {
		parts[i] = a.Elements[i].states()[si].String()
	}
	return "(" + joinComma(parts) + ")"
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// Paths returns the propagation paths the array contributes between tx
// and rx under configuration c at wavelength lambdaM: one bistatic path
// per non-terminated element. Terminated elements contribute nothing, so
// the all-terminated configuration returns an empty slice — exactly the
// paper's observation that terminated arrays leave only environmental
// reflections. Paths, PathsWithFaults and ContinuousPaths are the slow
// per-path reference that internal/channel's superposition model, which
// measurements and the inverse solver use, is tested against.
func (a *Array) Paths(env *propagation.Environment, tx, rx propagation.Node,
	c Config, lambdaM float64) []propagation.Path {

	if err := a.Validate(c); err != nil {
		panic(err)
	}
	var paths []propagation.Path
	for i, e := range a.Elements {
		refl, extra := e.Reflection(c[i], lambdaM)
		if p, ok := propagation.BistaticPath(env, tx, rx, e.Pos, e.Pattern, refl, extra, lambdaM); ok {
			paths = append(paths, p)
		}
	}
	return paths
}
