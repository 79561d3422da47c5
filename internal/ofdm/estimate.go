package ofdm

import (
	"fmt"
	"math"
	"math/cmplx"

	"press/internal/rfphys"
)

// CSI is the receiver's view of one wireless channel: the least-squares
// channel estimate and per-subcarrier SNR, the quantities every figure in
// the paper is computed from.
type CSI struct {
	Grid Grid
	// H is the complex channel estimate per used subcarrier.
	H []complex128
	// SNRdB is the estimated per-subcarrier SNR in dB.
	SNRdB []float64
	// NoisePowerW is the estimated (or known) noise power per subcarrier.
	NoisePowerW float64
}

// Estimate performs least-squares channel estimation from received
// training observations. rx[s][k] is the received sample of training
// symbol s on used subcarrier k; tx[k] is the known training symbol
// (shared across repetitions); txPowerW is the transmit power allocated
// to each subcarrier; noiseW is the per-subcarrier noise power at the
// receiver (known from the radio's noise figure, as on a calibrated SDR).
// A transmit power that is not finite and positive, or a noise power that
// is not finite, is an error.
//
// With S ≥ 2 training symbols the estimator also measures the noise
// empirically from the spread of the per-symbol estimates and uses the
// larger of measured and nominal noise — mirroring how an SDR pipeline's
// effective noise floor includes estimation error.
func Estimate(g Grid, rx [][]complex128, tx []complex128, txPowerW, noiseW float64) (*CSI, error) {
	if len(rx) == 0 {
		return nil, fmt.Errorf("ofdm: no training symbols received")
	}
	n := g.NumUsed()
	if len(tx) != n {
		return nil, fmt.Errorf("ofdm: training sequence has %d entries for %d subcarriers", len(tx), n)
	}
	for s := range rx {
		if len(rx[s]) != n {
			return nil, fmt.Errorf("ofdm: training symbol %d has %d entries for %d subcarriers", s, len(rx[s]), n)
		}
	}
	if !(txPowerW > 0 && txPowerW < math.Inf(1)) {
		return nil, fmt.Errorf("ofdm: per-subcarrier transmit power %v W is not finite and positive", txPowerW)
	}
	if math.IsNaN(noiseW) || math.IsInf(noiseW, 0) {
		return nil, fmt.Errorf("ofdm: noise power %v W is not finite", noiseW)
	}

	csi := &CSI{Grid: g, H: make([]complex128, n), SNRdB: make([]float64, n), NoisePowerW: noiseW}
	amp := complex(math.Sqrt(txPowerW), 0)
	reps := complex(float64(len(rx)), 0)

	var residual float64 // accumulated |deviation|² across symbols & subcarriers
	var residualN int
	var qBuf [16]complex128 // per-symbol Y/(amp·X) on one subcarrier
	q := qBuf[:]
	if len(rx) > len(qBuf) {
		q = make([]complex128, len(rx))
	}
	q = q[:len(rx)]
	for k := 0; k < n; k++ {
		// LS estimate: average Y/(amp·X) across training repetitions.
		m := amp * tx[k]
		var sum complex128
		for s := range rx {
			q[s] = div(rx[s][k], m)
			sum += q[s]
		}
		h := div(sum, reps)
		csi.H[k] = h
		for s := range q {
			dev := q[s] - h
			residual += real(dev)*real(dev) + imag(dev)*imag(dev)
			residualN++
		}
	}

	// Empirical per-subcarrier noise (deviation of Y/X has variance
	// noise/txPower; scale back). Only meaningful with ≥2 repetitions.
	effNoise := noiseW
	if len(rx) >= 2 && residualN > 0 {
		measured := residual / float64(residualN) * txPowerW *
			float64(len(rx)) / float64(len(rx)-1) // unbiased
		if measured > effNoise {
			effNoise = measured
		}
	}
	if effNoise <= 0 {
		return nil, fmt.Errorf("ofdm: non-positive noise power")
	}
	csi.NoisePowerW = effNoise

	// Averaging S symbols reduces estimation noise on H by S; the SNR we
	// report is the per-symbol link SNR |H|²·P/N, the paper's quantity.
	for k := 0; k < n; k++ {
		mag2 := real(csi.H[k])*real(csi.H[k]) + imag(csi.H[k])*imag(csi.H[k])
		csi.SNRdB[k] = rfphys.LinearToDB(mag2 * txPowerW / effNoise)
	}
	return csi, nil
}

// div returns a/m bit for bit, without the runtime call when m is real
// (BPSK training times a real amplitude, and the symbol count). For such
// a divisor Go's division (Smith's algorithm) takes the ratio
// r = imag(m)/real(m), a signed zero, and the denominator
// real(m) + r·imag(m), which is real(m) exactly; e and f are its
// expressions, the im·r and re·r terms kept because they fix the sign of
// a zero result. A zero or NaN real part makes r, e and f NaN; both-NaN
// results, which Go's C99 infinity fix-up may rewrite, and complex
// divisors go through Go's division itself. (e == e is false only for
// NaN; spelt that way, div stays inlinable.)
func div(a, m complex128) complex128 {
	if imag(m) == 0 {
		d := real(m)
		r := imag(m) / d
		e := (real(a) + imag(a)*r) / d
		f := (imag(a) - real(a)*r) / d
		if e == e || f == f {
			return complex(e, f)
		}
	}
	return a / m
}

// GainDB returns the per-subcarrier channel magnitude in dB.
func (c *CSI) GainDB() []float64 {
	out := make([]float64, len(c.H))
	for i, h := range c.H {
		out[i] = rfphys.AmplitudeToDB(cmplx.Abs(h))
	}
	return out
}

// MinSNRdB returns the worst subcarrier SNR — Figure 6's headline metric.
func (c *CSI) MinSNRdB() float64 {
	if len(c.SNRdB) == 0 {
		return math.Inf(-1)
	}
	worst := c.SNRdB[0]
	for _, s := range c.SNRdB[1:] {
		if s < worst {
			worst = s
		}
	}
	return worst
}
