// Package ofdm provides the OFDM physical-layer pieces the measurement
// pipeline needs: subcarrier grids (the 64-subcarrier/20 MHz Wi-Fi-like
// signal of the paper's WARP experiments and the 102-subcarrier USRP
// variant of §3.2.2), training sequences, least-squares channel
// estimation, per-subcarrier SNR extraction, and SNR→bit-rate mapping.
package ofdm

import (
	"fmt"
	"math"
)

// Grid is an OFDM subcarrier layout on a carrier.
type Grid struct {
	// CenterHz is the carrier center frequency.
	CenterHz float64
	// SpacingHz is the subcarrier spacing.
	SpacingHz float64
	// Used lists the used (data+pilot) subcarrier offsets relative to the
	// center, in ascending order; guards and DC are simply absent.
	Used []int
}

// WiFi20 returns the paper's primary signal: "Wi-Fi-like OFDM signals
// comprised of 64 subcarriers over 20 MHz on channel 11 of the ISM band
// (2.462 GHz)". 52 subcarriers carry energy (offsets ±1..±26, DC and
// guards unused), with the standard 312.5 kHz spacing.
func WiFi20() Grid {
	used := make([]int, 0, 52)
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		used = append(used, k)
	}
	return Grid{CenterHz: 2.462e9, SpacingHz: 312.5e3, Used: used}
}

// USRP102 returns the 102-used-subcarrier grid of the §3.2.2 network
// harmonization experiment (USRP N210, 25 MS/s front end; Figure 7 plots
// subcarriers 1..102). Offsets ±1..±51 around a 2.45 GHz carrier.
func USRP102() Grid {
	used := make([]int, 0, 102)
	for k := -51; k <= 51; k++ {
		if k == 0 {
			continue
		}
		used = append(used, k)
	}
	return Grid{CenterHz: 2.45e9, SpacingHz: 195.3125e3, Used: used}
}

// NumUsed returns the number of used subcarriers.
func (g Grid) NumUsed() int { return len(g.Used) }

// Frequencies returns the absolute frequency of every used subcarrier, in
// the order of Used — the grid the channel response is evaluated on.
func (g Grid) Frequencies() []float64 {
	out := make([]float64, len(g.Used))
	for i, k := range g.Used {
		out[i] = g.CenterHz + float64(k)*g.SpacingHz
	}
	return out
}

// BandwidthHz returns the occupied bandwidth (outermost used subcarrier
// span plus one spacing).
func (g Grid) BandwidthHz() float64 {
	if len(g.Used) == 0 {
		return 0
	}
	return float64(g.Used[len(g.Used)-1]-g.Used[0]+1) * g.SpacingHz
}

// Validate checks the grid's invariants: finite, positive spacing and
// center, strictly ascending used list.
func (g Grid) Validate() error {
	// NaN fails both comparisons; a +Inf center would give a zero
	// wavelength.
	inf := math.Inf(1)
	if !(0 < g.CenterHz && g.CenterHz < inf && 0 < g.SpacingHz && g.SpacingHz < inf) {
		return fmt.Errorf("ofdm: center %v Hz and spacing %v Hz must be finite and positive", g.CenterHz, g.SpacingHz)
	}
	if len(g.Used) == 0 {
		return fmt.Errorf("ofdm: no used subcarriers")
	}
	for i := 1; i < len(g.Used); i++ {
		if g.Used[i] <= g.Used[i-1] {
			return fmt.Errorf("ofdm: Used not strictly ascending at %d", i)
		}
	}
	return nil
}

// SubcarrierIndex maps a used-subcarrier position (0-based, the paper's
// plotting convention) back to its frequency offset.
func (g Grid) SubcarrierIndex(pos int) (offset int, err error) {
	if pos < 0 || pos >= len(g.Used) {
		return 0, fmt.Errorf("ofdm: subcarrier position %d out of range [0,%d)", pos, len(g.Used))
	}
	return g.Used[pos], nil
}
