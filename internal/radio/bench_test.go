package radio

import (
	"testing"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// BenchmarkMeasureCSI times one sounding on a warmed 3-element SP4T link
// (WiFi20, 52 subcarriers), cycling through all 64 configurations: the
// channel sum from the link's channel model, frame synthesis and LS
// estimation. A sounding allocates only the returned CSI (struct, H,
// SNRdB): 3 allocs/op.
func BenchmarkMeasureCSI(b *testing.B) {
	b.Run("static", func(b *testing.B) {
		benchSoundings(b, testbed(b, 1), nil)
	})
	b.Run("doppler", func(b *testing.B) {
		l := testbed(b, 1)
		l.RX.Node.Velocity = geom.V(rfphys.MphToMps(3), 0, 0)
		l.InvalidateEnvironment()
		benchSoundings(b, l, nil)
	})
	b.Run("continuous", func(b *testing.B) {
		benchSoundings(b, testbed(b, 1), element.ContinuousConfig{0.3, 1.2, element.Off})
	})
	b.Run("faulted", func(b *testing.B) {
		l := testbed(b, 1)
		l.Faults = element.Faults{0: {Kind: element.StuckAt, State: 1}, 2: {Kind: element.Dead}}
		benchSoundings(b, l, nil)
	})
}

// benchSoundings measures every configuration of l's array in turn (or
// the continuous phases, when given), 78 ms of simulated time apart.
func benchSoundings(b *testing.B, l *Link, phases element.ContinuousConfig) {
	cfgs := make([]element.Config, 0, l.Array.NumConfigs())
	l.Array.EachConfig(func(_ int, c element.Config) bool {
		cfgs = append(cfgs, c.Clone())
		return true
	})
	measure := func(i int) error {
		t := float64(i) * 0.078
		if phases != nil {
			_, err := l.MeasureCSIContinuous(phases, t)
			return err
		}
		_, err := l.MeasureCSI(cfgs[i%len(cfgs)], t)
		return err
	}
	if err := measure(0); err != nil { // builds the channel model and scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := measure(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameSynth times frame synthesis alone on a warmed WiFi20
// link: the noiseless term √P·h·x per subcarrier plus 4 symbols × 52
// subcarriers of complex Gaussian noise (416 draws), into link scratch:
// 0 allocs/op.
func BenchmarkFrameSynth(b *testing.B) {
	l := testbed(b, 1)
	h, err := l.response(element.Config{0, 1, 2}, nil, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := l.synthesize(h); err != nil { // allocates the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := l.synthesize(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMIMOTrueChannel times one noiseless 4×4 channel under a
// 3-element array on a warmed link: 16 antenna-pair sums from their
// bases plus assembling the 52 per-subcarrier matrices.
func BenchmarkMIMOTrueChannel(b *testing.B) {
	env := propagation.NewEnvironment(14, 10, 3)
	lambda := rfphys.Wavelength(ofdm.WiFi20().CenterHz)
	omni := rfphys.Omni{PeakGainDBi: 2}
	var txAnts, rxAnts []propagation.Node
	for a := 0; a < 4; a++ {
		off := float64(a) * lambda / 2
		txAnts = append(txAnts, propagation.Node{Pos: geom.V(5.5, 5+off, 1.5), Pattern: omni})
		rxAnts = append(rxAnts, propagation.Node{Pos: geom.V(8, 5.2+off, 1.3), Pattern: omni})
	}
	arr := element.NewArray(
		element.NewOmniElement(geom.V(5.5, 5+3*lambda, 1.5)),
		element.NewOmniElement(geom.V(5.5, 5+4*lambda, 1.5)),
		element.NewOmniElement(geom.V(5.5, 5+5*lambda, 1.5)),
	)
	ml, err := NewMIMOLink(env, txAnts, rxAnts, ofdm.WiFi20(), arr, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := arr.NumConfigs()
	cfgs := make([]element.Config, n)
	for i := range cfgs {
		cfgs[i] = arr.ConfigAt(i)
	}
	if _, err := ml.TrueChannel(cfgs[0], 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrueChannel(cfgs[i%n], 0); err != nil {
			b.Fatal(err)
		}
	}
}
