package radio

import (
	"fmt"
	"math"

	"press/internal/element"
	"press/internal/ofdm"
)

// BERReport is the outcome of one payload transmission experiment.
type BERReport struct {
	Modulation ofdm.Modulation
	BitsSent   int
	BitErrors  int
	// BER is BitErrors/BitsSent.
	BER float64
	// Symbols is the OFDM symbol count transmitted.
	Symbols int
}

// MeasureBER transmits random payload bits under cfg at time t and
// returns the measured bit error rate: training-based channel estimation
// followed by per-subcarrier equalization and hard-decision demodulation
// — the link-level consequence of the per-subcarrier SNR the paper
// reports. At least nBits bits are sent (rounded up to whole OFDM
// symbols).
func (l *Link) MeasureBER(cfg element.Config, m ofdm.Modulation, nBits int, t float64) (*BERReport, error) {
	if nBits < 1 {
		return nil, fmt.Errorf("radio: nBits must be positive")
	}
	bps := m.BitsPerSymbol()
	if bps == 0 {
		return nil, fmt.Errorf("radio: unsupported modulation %v", m)
	}
	// The receiver estimates the channel from training first.
	csi, err := l.MeasureCSI(cfg, t)
	if err != nil {
		return nil, err
	}
	h := l.TrueResponse(cfg, t)

	nUsed := l.Grid.NumUsed()
	bitsPerOFDM := nUsed * bps
	symbols := (nBits + bitsPerOFDM - 1) / bitsPerOFDM

	txPw, noise := l.powers()
	amp := complex(math.Sqrt(txPw), 0)
	sigma := math.Sqrt(noise / 2)

	report := &BERReport{Modulation: m, Symbols: symbols}
	for s := 0; s < symbols; s++ {
		bits := make([]uint8, bitsPerOFDM)
		for i := range bits {
			bits[i] = uint8(l.rng.IntN(2))
		}
		x, err := ofdm.Modulate(m, bits)
		if err != nil {
			return nil, err
		}
		// Through the channel, equalized with the *estimated* CSI.
		eq := make([]complex128, nUsed)
		for k := 0; k < nUsed; k++ {
			n := complex(l.rng.NormFloat64()*sigma, l.rng.NormFloat64()*sigma)
			y := amp*h[k]*x[k] + n
			den := amp * csi.H[k]
			if den == 0 {
				eq[k] = 0 // unequalizable: decides randomly toward 0
				continue
			}
			eq[k] = y / den
		}
		rxBits, err := ofdm.Demodulate(m, eq)
		if err != nil {
			return nil, err
		}
		errs, err := ofdm.CountBitErrors(bits, rxBits)
		if err != nil {
			return nil, err
		}
		report.BitsSent += len(bits)
		report.BitErrors += errs
	}
	report.BER = float64(report.BitErrors) / float64(report.BitsSent)
	return report, nil
}
