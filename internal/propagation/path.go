// Package propagation implements the multipath propagation substrate the
// paper's experiments run over. It follows the standard signal model the
// paper cites (§2, [31, 32]): the channel between a sender and receiver is
// a superposition of paths, each characterized by its angle of departure
// φ, propagation delay τ, Doppler shift γ, angle of arrival θ, and complex
// gain. The package generates those paths for an indoor room with the
// image method (direct path, wall bounces up to second order, point
// scatterers) and evaluates the resulting channel frequency response on
// any subcarrier grid.
//
// PRESS elements add their own switched paths through the same model; see
// BistaticPath and internal/element.
package propagation

import (
	"fmt"
	"math"
	"math/cmplx"

	"press/internal/geom"
	"press/internal/rfphys"
)

// Kind classifies how a path came to be, for diagnostics and for filters
// ("what does the channel look like without the element paths?").
type Kind int

// Path kinds.
const (
	KindDirect Kind = iota
	KindWall
	KindScatter
	KindElement
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDirect:
		return "direct"
	case KindWall:
		return "wall"
	case KindScatter:
		return "scatter"
	case KindElement:
		return "element"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Path is one propagation path in the paper's signal model: a complex
// gain, a delay, angles at both ends, and a Doppler shift.
type Path struct {
	// Gain is the frequency-flat complex amplitude of the path: antenna
	// gains, spreading loss, reflection coefficients, and any fixed phase
	// (e.g. a reflection sign). The frequency-dependent propagation phase
	// e^{-j2πfτ} is NOT included; Response applies it from Delay.
	Gain complex128
	// Delay is the propagation delay τ in seconds (includes any
	// switched-stub delay inside a PRESS element).
	Delay float64
	// AoD and AoA are unit vectors: the departure direction at the
	// transmitter and the direction of travel at the receiver.
	AoD, AoA geom.Vec
	// DopplerHz is the Doppler shift γ of this path.
	DopplerHz float64
	// Kind records the path's origin.
	Kind Kind
	// Hops is the number of reflections (0 for the direct path).
	Hops int
}

// PowerDB returns the path's gain in dB (20·log10|gain|).
func (p Path) PowerDB() float64 { return rfphys.AmplitudeToDB(cmplx.Abs(p.Gain)) }

// ResponseAt evaluates the channel frequency response of the path set at
// absolute frequency fHz and time t seconds:
//
//	H(f, t) = Σ_l gain_l · e^{-j2πfτ_l} · e^{+j2πγ_l t}
func ResponseAt(paths []Path, fHz, t float64) complex128 {
	var h complex128
	for _, p := range paths {
		phase := -2 * math.Pi * fHz * p.Delay
		if p.DopplerHz != 0 {
			phase += 2 * math.Pi * p.DopplerHz * t
		}
		h += p.Gain * rfphys.Cis(phase)
	}
	return h
}

// Response evaluates the channel response on a whole frequency grid at
// time t, returning one complex sample per frequency.
func Response(paths []Path, freqsHz []float64, t float64) []complex128 {
	h := make([]complex128, len(freqsHz))
	for i, f := range freqsHz {
		h[i] = ResponseAt(paths, f, t)
	}
	return h
}

// TotalPowerDB returns the incoherent sum of path powers in dB — an upper
// envelope on the channel gain, useful for sanity checks.
func TotalPowerDB(paths []Path) float64 {
	var sum float64
	for _, p := range paths {
		a := cmplx.Abs(p.Gain)
		sum += a * a
	}
	return rfphys.LinearToDB(sum)
}

// MeanDelay returns the power-weighted mean delay of the path set, in
// seconds. An empty or zero-power set yields 0.
func MeanDelay(paths []Path) float64 {
	var pw, sum float64
	for _, p := range paths {
		a := cmplx.Abs(p.Gain)
		pw += a * a
		sum += a * a * p.Delay
	}
	if pw == 0 {
		return 0
	}
	return sum / pw
}

// RMSDelaySpread returns the power-weighted RMS delay spread, the standard
// frequency-selectivity metric: large spread ⇒ closely spaced frequency
// nulls.
func RMSDelaySpread(paths []Path) float64 {
	mean := MeanDelay(paths)
	var pw, sum float64
	for _, p := range paths {
		a := cmplx.Abs(p.Gain)
		d := p.Delay - mean
		pw += a * a
		sum += a * a * d * d
	}
	if pw == 0 {
		return 0
	}
	return math.Sqrt(sum / pw)
}

// CoherenceBandwidth returns the 50%-correlation coherence bandwidth
// estimate 1/(5·τ_rms) in Hz. Zero delay spread yields +Inf.
func CoherenceBandwidth(paths []Path) float64 {
	s := RMSDelaySpread(paths)
	if s == 0 {
		return math.Inf(1)
	}
	return 1 / (5 * s)
}

// MaxDoppler returns the largest |Doppler| across paths, the fd that
// plugs into rfphys.CoherenceTime.
func MaxDoppler(paths []Path) float64 {
	var fd float64
	for _, p := range paths {
		if d := math.Abs(p.DopplerHz); d > fd {
			fd = d
		}
	}
	return fd
}
