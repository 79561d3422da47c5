// Package experiments contains one runnable harness per figure and
// in-text result of the paper's exploratory study (§3), plus the
// ablations of the §4 design-space discussion. Each harness builds its
// workload, runs the sweep, computes the paper's statistics, and can
// print the same rows/series the paper plots. cmd/pressim and the
// repository-root benchmarks are thin wrappers around these functions.
package experiments

import (
	"fmt"
	"math/rand/v2"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/obs/scope"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// SISOScenario parameterizes the standard §3.2 testbed: a non-line-of-
// sight link in a controlled indoor room with a small passive PRESS
// array between the endpoints.
type SISOScenario struct {
	// Seed drives placement, scatterers, and measurement noise.
	Seed uint64
	// NumElements is the PRESS array size (the paper uses 3).
	NumElements int
	// ElementStates is the switch bank (default SP4TStates).
	ElementStates []element.State
	// ElementPattern chooses the element antenna: "parabolic" (paper
	// prototype) or "omni".
	ElementPattern string
	// LineOfSight leaves the direct path unblocked (the §3 preliminary
	// experiment); the default is the blocked NLoS setup.
	LineOfSight bool
	// NumScatterers and ScattererAmp control the ambient multipath
	// (panel-scale reflectors; see DESIGN.md).
	NumScatterers int
	ScattererAmp  float64
	// RoomX and RoomY set the lab floor plan in metres (default 12×9).
	// Bigger rooms mean longer bounce paths, hence more frequency nulls
	// inside the 20 MHz band.
	RoomX, RoomY float64
	// Scope, when set, receives this scenario's telemetry instead of the
	// package-ambient scope — how per-session harnesses (pressim -exp
	// concurrent, the pressd arc) observe each room independently.
	Scope *scope.Scope
}

// DefaultSISO returns the paper's §3.2 setup for a given seed: three
// parabolic SP4T elements, blocked direct path.
func DefaultSISO(seed uint64) SISOScenario {
	return SISOScenario{
		Seed:           seed,
		NumElements:    3,
		ElementPattern: "parabolic",

		ScattererAmp:  35,
		NumScatterers: 10,
	}
}

// Build assembles the link: a 14×10×3 m lab (bounce paths tens of metres
// long push the coherence bandwidth below the occupied band, so frequency
// nulls fall *inside* the 20 MHz channel, as in the paper's Figure 4),
// endpoints 2.5 m apart near the middle, elements on the paper's 1–2 m
// grid, WARP-like radios on the Wi-Fi grid.
func (s SISOScenario) Build() (*radio.Link, error) {
	rx2, ry2 := s.RoomX, s.RoomY
	if rx2 <= 0 {
		rx2 = 12
	}
	if ry2 <= 0 {
		ry2 = 9
	}
	sc := s.Scope
	if sc == nil {
		sc = CurrentScope()
	}
	env := propagation.NewEnvironment(rx2, ry2, 3)
	env.AttachScope(sc)
	env.AddScatterers(rand.New(rand.NewPCG(s.Seed, 0xa11ce)), s.NumScatterers, s.ScattererAmp)

	cx, cy := rx2/2, ry2/2
	tx := &radio.Radio{
		Node:       propagation.Node{Pos: geom.V(cx-1.25, cy, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		TxPowerDBm: 15, NoiseFigureDB: 6,
	}
	rx := &radio.Radio{
		Node:          propagation.Node{Pos: geom.V(cx+1.25, cy+0.2, 1.3), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		NoiseFigureDB: 6,
	}
	if !s.LineOfSight {
		// The equipment blocking the direct path in the paper's NLoS
		// setup: a metal cabinet mid-link.
		env.Blockers = append(env.Blockers,
			geom.NewBlocker(geom.V(cx-0.4, cy-0.3, 0), geom.V(cx-0.1, cy+0.5, 2.2), 35))
	}

	n := s.NumElements
	if n < 1 {
		return nil, fmt.Errorf("experiments: need at least one element")
	}
	rng := rand.New(rand.NewPCG(s.Seed, 0xe1e))
	positions, err := element.DefaultPlacement.Place(rng, env.Room, tx.Node.Pos, rx.Node.Pos, n)
	if err != nil {
		return nil, err
	}
	elems := make([]*element.Element, n)
	for i, pos := range positions {
		switch s.ElementPattern {
		case "", "parabolic":
			elems[i] = element.NewParabolicElement(pos, rx.Node.Pos)
		case "omni":
			elems[i] = element.NewOmniElement(pos)
		default:
			return nil, fmt.Errorf("experiments: unknown element pattern %q", s.ElementPattern)
		}
		if len(s.ElementStates) > 0 {
			elems[i].States = s.ElementStates
		}
	}
	link, err := radio.NewLink(env, tx, rx, ofdm.WiFi20(), element.NewArray(elems...), s.Seed)
	if err != nil {
		return nil, err
	}
	link.AttachScope(sc)
	return link, nil
}

// MIMOScenario parameterizes the §3.2.3 testbed: a 2×2 NLoS transceiver
// pair in a larger room (the condition number only varies across the
// band once the delay spread pushes the coherence bandwidth below the
// occupied band) with omni PRESS elements co-linear with the TX antennas
// at λ spacing.
type MIMOScenario struct {
	Seed uint64
	// NumElements is the array size (3 → the paper's 64 configurations).
	NumElements int
	// Snapshots averaged per configuration (the paper uses 50).
	Snapshots int
	// Dim is the antenna count per side (default 2, the paper's 2×2;
	// larger values probe the §3.2.3 prediction that PRESS's impact
	// grows with MIMO dimension).
	Dim int
	// Scope, when set, overrides the package-ambient telemetry scope —
	// same session-orientation as SISOScenario.Scope.
	Scope *scope.Scope
}

// DefaultMIMO returns the §3.2.3 setup.
func DefaultMIMO(seed uint64) MIMOScenario {
	return MIMOScenario{Seed: seed, NumElements: 3, Snapshots: 50}
}

// Build assembles the Dim×Dim link.
func (s MIMOScenario) Build() (*radio.MIMOLink, error) {
	sc := s.Scope
	if sc == nil {
		sc = CurrentScope()
	}
	env := propagation.NewEnvironment(14, 10, 3)
	env.AttachScope(sc)
	env.AddScatterers(rand.New(rand.NewPCG(s.Seed, 0xa11ce)), 16, 40)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(6.6, 4.7, 0), geom.V(6.9, 5.5, 2.2), 35))

	dim := s.Dim
	if dim < 1 {
		dim = 2
	}
	lambda := rfphys.Wavelength(2.462e9)
	omni := rfphys.Omni{PeakGainDBi: 2}
	txAnts := make([]propagation.Node, dim)
	rxAnts := make([]propagation.Node, dim)
	for i := 0; i < dim; i++ {
		txAnts[i] = propagation.Node{Pos: geom.V(5.5, 5.0+float64(i)*lambda, 1.5), Pattern: omni}
		rxAnts[i] = propagation.Node{Pos: geom.V(8, 5.2+float64(i)*lambda, 1.3), Pattern: omni}
	}
	n := s.NumElements
	if n < 1 {
		return nil, fmt.Errorf("experiments: need at least one element")
	}
	elems := make([]*element.Element, n)
	for i := range elems {
		// "Omnidirectional PRESS elements are deployed co-linear to the
		// transmit antenna pair with λ spacing between the PRESS antenna
		// elements" — continuing the TX line past its last antenna.
		elems[i] = element.NewOmniElement(geom.V(5.5, 5.0+float64(dim+i)*lambda, 1.5))
	}
	ml, err := radio.NewMIMOLink(env, txAnts, rxAnts, ofdm.WiFi20(), element.NewArray(elems...), s.Seed)
	if err != nil {
		return nil, err
	}
	ml.NumTraining = 4
	ml.AttachScope(sc)
	return ml, nil
}

// newSeededRand returns a deterministic RNG for experiment sub-tasks.
func newSeededRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
