package rfphys

import "math"

// FriisAmplitude returns the free-space field-amplitude gain of a path of
// length distM metres at wavelength lambdaM: λ/(4πd). Antenna gains are
// applied separately by the caller (they depend on direction). Distances
// shorter than λ/(4π) — deep inside the antenna near field — are clamped
// to unit amplitude so that pathological geometries cannot produce gain
// out of thin air.
func FriisAmplitude(distM, lambdaM float64) float64 {
	if distM <= 0 {
		return 1
	}
	a := lambdaM / (4 * math.Pi * distM)
	if a > 1 {
		return 1
	}
	return a
}

// FriisPathLossDB returns the free-space path loss in dB (a positive
// number) over distM at lambdaM.
func FriisPathLossDB(distM, lambdaM float64) float64 {
	return -AmplitudeToDB(FriisAmplitude(distM, lambdaM))
}

// Cis returns the unit phasor e^{jθ} = cos θ + j·sin θ. It equals
// cmplx.Exp of 0 + jθ bit for bit, NaN and signed zeros included: Exp
// computes complex(r·cos θ, r·sin θ) with r = math.Exp(0), which is
// exactly 1, and 1·x is x. Cis skips that exponential and the two
// multiplies.
func Cis(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// PathPhasor returns the complex baseband rotation e^{-j2πd/λ}
// accumulated over a path of length distM at wavelength lambdaM.
func PathPhasor(distM, lambdaM float64) complex128 {
	return Cis(-2 * math.Pi * distM / lambdaM)
}

// FresnelReflection returns the field reflection coefficient of a
// dielectric wall with relative permittivity epsR for a ray whose angle
// of incidence from the wall normal is thetaRad, averaged over the two
// polarizations (our simulated antennas are not polarization-tracked).
// The magnitude grows toward grazing incidence, exactly the behaviour
// interior walls exhibit at Wi-Fi frequencies; typical drywall has
// epsR ≈ 2–3, brick ≈ 4.
func FresnelReflection(epsR, thetaRad float64) float64 {
	ci := math.Cos(thetaRad)
	si := math.Sin(thetaRad)
	under := epsR - si*si
	if under < 0 {
		under = 0
	}
	root := math.Sqrt(under)

	// Perpendicular (TE) and parallel (TM) coefficients.
	rte := (ci - root) / (ci + root)
	rtm := (epsR*ci - root) / (epsR*ci + root)
	// Average reflected *power*, then back to amplitude, keeping the TE
	// sign (dominant at most angles): a scalar model adequate for the
	// interference phenomena PRESS manipulates.
	p := (rte*rte + rtm*rtm) / 2
	a := math.Sqrt(p)
	if rte < 0 {
		a = -a
	}
	return a
}

// ThermalNoiseWatts returns k·T·B for bandwidth bwHz at temperature 290 K,
// plus the receiver noise figure in dB — the standard receiver noise-floor
// model.
func ThermalNoiseWatts(bwHz, noiseFigureDB float64) float64 {
	return BoltzmannK * 290 * bwHz * DBToLinear(noiseFigureDB)
}

// DopplerShiftHz returns the maximum Doppler shift v/λ for an endpoint
// moving at speedMps metres per second at wavelength lambdaM.
func DopplerShiftHz(speedMps, lambdaM float64) float64 {
	return speedMps / lambdaM
}

// CoherenceTime returns the channel coherence time, in seconds, for a
// maximum Doppler shift fd using the popular geometric-mean rule
// Tc = 9/(16π·fd) [Tse & Viswanath, Fundamentals of Wireless
// Communication]. At 2.4 GHz this gives ≈ 0.1 s for walking-adjacent
// movement (0.5 mph) and ≈ 8 ms at running speed (6 mph), matching the
// 80 ms / 6 ms envelope the paper quotes. Zero Doppler yields +Inf.
func CoherenceTime(dopplerHz float64) float64 {
	if dopplerHz <= 0 {
		return math.Inf(1)
	}
	return 9 / (16 * math.Pi * dopplerHz)
}

// MphToMps converts miles per hour to metres per second.
func MphToMps(mph float64) float64 { return mph * 0.44704 }
