package radio

import (
	"math"
	"testing"

	"press/internal/element"
	"press/internal/fpexact"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/rfphys"
)

// synthesizeRef is the reference sounding: the powers computed from the
// link's fields, √P·h·x evaluated per symbol and subcarrier into fresh
// frames, then the estimate. Link.synthesize must match it bit for bit.
func synthesizeRef(l *Link, h []complex128) (*ofdm.CSI, error) {
	tx := ofdm.TrainingSequence(l.Grid)
	txPw := rfphys.DBmToWatts(l.TX.TxPowerDBm) / float64(l.Grid.NumUsed())
	noise := rfphys.ThermalNoiseWatts(l.Grid.SpacingHz, l.RX.NoiseFigureDB)
	amp := complex(math.Sqrt(txPw), 0)
	sigma := math.Sqrt(noise / 2)
	rx := make([][]complex128, max(l.NumTraining, 1))
	for s := range rx {
		rx[s] = make([]complex128, len(h))
		for k := range h {
			n := complex(l.rng.NormFloat64()*sigma, l.rng.NormFloat64()*sigma)
			rx[s][k] = amp*h[k]*tx[k] + n
		}
	}
	return ofdm.Estimate(l.Grid, rx, tx, txPw, noise)
}

// sameCSI reports whether two estimates agree bit for bit.
func sameCSI(a, b *ofdm.CSI) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a.H) != len(b.H) || !same(a.NoisePowerW, b.NoisePowerW) {
		return false
	}
	for k := range a.H {
		if !same(real(a.H[k]), real(b.H[k])) || !same(imag(a.H[k]), imag(b.H[k])) || !same(a.SNRdB[k], b.SNRdB[k]) {
			return false
		}
	}
	return true
}

// TestMeasureCSIMatchesSynthesisReference: 1,000 soundings per kind of
// link give the same CSI, bit for bit, as the reference synthesis on a
// twin link with the same seed, while the training length, transmit
// power, noise figure and subcarrier spacing change every 100 soundings
// (so the cached powers must follow their inputs).
func TestMeasureCSIMatchesSynthesisReference(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; the hoisted transmit term may round differently")
	}
	kinds := []struct {
		name   string
		setup  func(l *Link)
		phases element.ContinuousConfig
	}{
		{name: "static", setup: func(*Link) {}},
		{name: "doppler", setup: func(l *Link) {
			l.RX.Node.Velocity = geom.V(rfphys.MphToMps(3), 0, 0)
			l.InvalidateEnvironment()
		}},
		{name: "faulted", setup: func(l *Link) {
			l.Faults = element.Faults{0: {Kind: element.StuckAt, State: 1}, 2: {Kind: element.Dead}}
		}},
		{name: "continuous", setup: func(*Link) {}, phases: element.ContinuousConfig{0.3, 1.2, element.Off}},
	}
	nTraining := []int{4, 1, 17, 2, 16}
	for ki, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			seed := uint64(60 + ki)
			l, ref := testbed(t, seed), testbed(t, seed)
			kind.setup(l)
			kind.setup(ref)
			n := l.Array.NumConfigs()
			for i := 0; i < 1000; i++ {
				if i%100 == 0 && i > 0 {
					for _, x := range []*Link{l, ref} {
						x.NumTraining = nTraining[(i/100)%len(nTraining)]
						x.TX.TxPowerDBm = 5 + float64(i/100)
						x.RX.NoiseFigureDB = 4 + float64(i%300)/100
						x.Grid.SpacingHz = 312.5e3 * (1 + float64(i%200)/1000)
					}
				}
				at := float64(i) * 0.078
				cfg := l.Array.ConfigAt(i % n)
				var got *ofdm.CSI
				var err error
				if kind.phases != nil {
					got, err = l.MeasureCSIContinuous(kind.phases, at)
				} else {
					got, err = l.MeasureCSI(cfg, at)
				}
				if err != nil {
					t.Fatal(err)
				}
				h, err := ref.response(cfg, kind.phases, kind.phases != nil, at)
				if err != nil {
					t.Fatal(err)
				}
				want, err := synthesizeRef(ref, h)
				if err != nil {
					t.Fatal(err)
				}
				if !sameCSI(got, want) {
					t.Fatalf("sounding %d: CSI differs from the reference synthesis (min SNR %v vs %v dB)",
						i, got.MinSNRdB(), want.MinSNRdB())
				}
			}
		})
	}
}

// TestMeasureRejectsNonFinitePowers: a transmit power or noise figure of
// NaN or ±Inf is an error, never NaN CSI, and draws no noise: after it
// is restored, the next sounding matches a fresh link's first.
func TestMeasureRejectsNonFinitePowers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	txPower := func(l *Link, v float64) { l.TX.TxPowerDBm = v }
	noiseFigure := func(l *Link, v float64) { l.RX.NoiseFigureDB = v }
	cases := []struct {
		name    string
		set     func(l *Link, v float64)
		v, good float64
	}{
		{"NaN TxPowerDBm", txPower, nan, 15},
		{"+Inf TxPowerDBm", txPower, inf, 15},
		{"-Inf TxPowerDBm", txPower, -inf, 15},
		{"NaN NoiseFigureDB", noiseFigure, nan, 6},
		{"+Inf NoiseFigureDB", noiseFigure, inf, 6},
		{"-Inf NoiseFigureDB", noiseFigure, -inf, 6},
	}
	cfg := element.Config{0, 1, 2}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := testbed(t, 42)
			tc.set(l, tc.v)
			for range 2 { // the second call goes through the cached powers
				if csi, err := l.MeasureCSI(cfg, 0); err == nil {
					t.Fatalf("accepted: min SNR %v dB", csi.MinSNRdB())
				}
			}
			if _, err := l.MeasureCSIContinuous(element.ContinuousConfig{0, 1, 2}, 0); err == nil {
				t.Fatal("continuous sounding accepted")
			}
			tc.set(l, tc.good)
			got, err := l.MeasureCSI(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := testbed(t, 42).MeasureCSI(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCSI(got, want) {
				t.Fatal("rejected sounding consumed noise")
			}
		})
	}
}
