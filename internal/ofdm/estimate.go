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
	if txPowerW <= 0 {
		return nil, fmt.Errorf("ofdm: non-positive per-subcarrier transmit power")
	}

	csi := &CSI{Grid: g, H: make([]complex128, n), SNRdB: make([]float64, n), NoisePowerW: noiseW}
	amp := complex(math.Sqrt(txPowerW), 0)

	var residual float64 // accumulated |deviation|² across symbols & subcarriers
	var residualN int
	q := make([]complex128, len(rx)) // per-symbol Y/(amp·X) on one subcarrier
	for k := 0; k < n; k++ {
		// LS estimate: average Y/(amp·X) across training repetitions.
		var sum complex128
		for s := range rx {
			q[s] = rx[s][k] / (amp * tx[k])
			sum += q[s]
		}
		h := sum / complex(float64(len(rx)), 0)
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
