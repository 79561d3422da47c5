package radio

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/mimo"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
	"press/internal/stats"
)

// mimoTestbed reproduces §3.2.3: 2×2 NLoS transceiver pair, PRESS
// elements co-linear with the TX pair at λ spacing.
func mimoTestbed(t *testing.T, seed uint64) *MIMOLink {
	t.Helper()
	// A larger room than the SISO bench: the 2×2 condition number only
	// varies across the band when the delay spread is big enough that the
	// coherence bandwidth falls below the 16.5 MHz occupied band, which
	// needs bounce paths tens of metres long.
	env := propagation.NewEnvironment(14, 10, 3)
	env.AddScatterers(rand.New(rand.NewPCG(seed, 99)), 10, 40)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(6.6, 4.7, 0), geom.V(6.9, 5.5, 2.2), 35))

	lambda := rfphys.Wavelength(2.462e9)
	omni := rfphys.Omni{PeakGainDBi: 2}
	txAnts := []propagation.Node{
		{Pos: geom.V(5.5, 5.0, 1.5), Pattern: omni},
		{Pos: geom.V(5.5, 5.0+lambda/2, 1.5), Pattern: omni},
	}
	rxAnts := []propagation.Node{
		{Pos: geom.V(8, 5.2, 1.3), Pattern: omni},
		{Pos: geom.V(8, 5.2+lambda/2, 1.3), Pattern: omni},
	}
	// Elements co-linear with the TX antenna pair, λ apart.
	arr := element.NewArray(
		element.NewOmniElement(geom.V(5.5, 5.0+2*lambda, 1.5)),
		element.NewOmniElement(geom.V(5.5, 5.0+3*lambda, 1.5)),
		element.NewOmniElement(geom.V(5.5, 5.0+4*lambda, 1.5)),
	)
	ml, err := NewMIMOLink(env, txAnts, rxAnts, ofdm.WiFi20(), arr, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ml
}

func TestTrueChannelShape(t *testing.T) {
	ml := mimoTestbed(t, 1)
	ch, err := ml.TrueChannel(element.Config{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumSubcarriers() != 52 {
		t.Fatalf("subcarriers = %d", ch.NumSubcarriers())
	}
	m := ch.Matrices[0]
	if m.Rows != 2 || m.Cols != 2 {
		t.Fatalf("matrix shape %dx%d", m.Rows, m.Cols)
	}
	// Antennas at distinct positions: entries must differ.
	if m.At(0, 0) == m.At(1, 1) || m.At(0, 1) == m.At(1, 0) {
		t.Error("channel matrix entries suspiciously identical")
	}
}

func TestConfigMovesConditionNumber(t *testing.T) {
	ml := mimoTestbed(t, 2)
	c0, err := ml.TrueChannel(element.Config{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := ml.TrueChannel(element.Config{2, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m0 := stats.Median(c0.CondProfileDB())
	m1 := stats.Median(c1.CondProfileDB())
	if m0 == m1 {
		t.Error("PRESS configuration had no effect on conditioning")
	}
}

func TestMeasureChannelNoisePerturbs(t *testing.T) {
	ml := mimoTestbed(t, 3)
	truth, err := ml.TrueChannel(element.Config{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := ml.MeasureChannel(element.Config{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Matrices[0].MaxAbsDiff(truth.Matrices[0]) == 0 {
		t.Error("measurement added no noise")
	}
	// But the perturbation is small relative to the channel (the paper's
	// 30+ dB measurement SNR regime).
	rel := noisy.Matrices[0].MaxAbsDiff(truth.Matrices[0]) / truth.Matrices[0].FrobeniusNorm()
	if rel > 0.5 {
		t.Errorf("relative measurement error %v too large", rel)
	}
}

func TestMeasureAveragedConvergesToTruth(t *testing.T) {
	ml := mimoTestbed(t, 4)
	cfg := element.Config{1, 1, 1}
	truth, err := ml.TrueChannel(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := ml.MeasureChannel(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := ml.MeasureAveraged(cfg, 50, Timing{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	errOne := one.Matrices[10].MaxAbsDiff(truth.Matrices[10])
	errAvg := avg.Matrices[10].MaxAbsDiff(truth.Matrices[10])
	if errAvg >= errOne {
		t.Errorf("averaging 50 snapshots did not help: %v vs %v", errAvg, errOne)
	}
}

func TestMeasureAveragedValidation(t *testing.T) {
	ml := mimoTestbed(t, 5)
	if _, err := ml.MeasureAveraged(element.Config{0, 0, 0}, 0, Timing{}, 0); err == nil {
		t.Error("zero snapshots accepted")
	}
}

func TestCondProfileVariesAcrossSubcarriers(t *testing.T) {
	ml := mimoTestbed(t, 6)
	ch, err := ml.TrueChannel(element.Config{0, 2, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof := ch.CondProfileDB()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range prof {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi-lo < 0.5 {
		t.Errorf("condition number flat across band (%v–%v dB); expected frequency selectivity", lo, hi)
	}
	// Figure 8's axis spans 0–15 dB; a sane testbed lands inside.
	med := stats.Median(prof)
	if med < 0 || med > 30 {
		t.Errorf("median condition number %v dB implausible", med)
	}
}

func TestNewMIMOLinkValidation(t *testing.T) {
	env := propagation.NewEnvironment(6, 5, 3)
	if _, err := NewMIMOLink(env, nil, nil, ofdm.WiFi20(), nil, 1); err == nil {
		t.Error("empty antenna sets accepted")
	}
	tx := []propagation.Node{{Pos: geom.V(1, 1, 1)}}
	rx := []propagation.Node{{Pos: geom.V(4, 4, 1)}}
	if _, err := NewMIMOLink(env, tx, rx, ofdm.Grid{}, nil, 1); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestAveragedTimingAdvances(t *testing.T) {
	// A sanity check that MeasureAveraged advances simulated time: with a
	// moving receiver (Doppler), averaging over a long window smears the
	// channel relative to a frozen-time average.
	env := propagation.NewEnvironment(6, 5, 3)
	omni := rfphys.Omni{PeakGainDBi: 2}
	tx := []propagation.Node{{Pos: geom.V(1.5, 2.5, 1.5), Pattern: omni}}
	rx := []propagation.Node{{Pos: geom.V(4, 2.7, 1.3), Pattern: omni, Velocity: geom.V(0.5, 0, 0)}}
	ml, err := NewMIMOLink(env, tx, rx, ofdm.WiFi20(), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := ml.MeasureAveraged(nil, 20, Timing{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ml.MeasureAveraged(nil, 20, Timing{PerMeasurement: 50 * time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The smeared average should have smaller magnitude than the frozen
	// one (incoherent combining), at least on most subcarriers.
	var smaller int
	for k := 0; k < frozen.NumSubcarriers(); k++ {
		if slow.Matrices[k].FrobeniusNorm() < frozen.Matrices[k].FrobeniusNorm() {
			smaller++
		}
	}
	if smaller < frozen.NumSubcarriers()/2 {
		t.Errorf("Doppler smearing not visible: only %d/%d subcarriers shrank", smaller, frozen.NumSubcarriers())
	}
}

// TestMIMOMeasureRejectsNonFinitePowers: a transmit power or noise figure
// of NaN or ±Inf makes MeasureChannel and MeasureAveraged fail, on static
// and moving links alike, before any noise is drawn: once the field is
// fixed, the link measures what a fresh link of the same seed measures.
func TestMIMOMeasureRejectsNonFinitePowers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	txPower := func(ml *MIMOLink, v float64) { ml.TxPowerDBm = v }
	noiseFigure := func(ml *MIMOLink, v float64) { ml.NoiseFigureDB = v }
	cases := []struct {
		name    string
		set     func(ml *MIMOLink, v float64)
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
	testbed := func(moving bool) *MIMOLink {
		ml := mimoTestbed(t, 8)
		if moving {
			ml.RXAnts[0].Velocity = geom.V(0.5, 0, 0)
		}
		return ml
	}
	for _, moving := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name + "/static"
			if moving {
				name = tc.name + "/moving"
			}
			t.Run(name, func(t *testing.T) {
				ml := testbed(moving)
				tc.set(ml, tc.v)
				if ch, err := ml.MeasureChannel(cfg, 0); err == nil {
					t.Fatalf("MeasureChannel accepted: entry %v", ch.Matrices[0].At(0, 0))
				}
				if ch, err := ml.MeasureAveraged(cfg, 5, PrototypeTiming, 0); err == nil {
					t.Fatalf("MeasureAveraged accepted: entry %v", ch.Matrices[0].At(0, 0))
				}
				tc.set(ml, tc.good)
				fresh := testbed(moving)
				for _, measure := range []func(*MIMOLink) (*mimo.Channel, error){
					func(ml *MIMOLink) (*mimo.Channel, error) { return ml.MeasureChannel(cfg, 0) },
					func(ml *MIMOLink) (*mimo.Channel, error) { return ml.MeasureAveraged(cfg, 5, PrototypeTiming, 0) },
				} {
					got, err := measure(ml)
					if err != nil {
						t.Fatal(err)
					}
					want, err := measure(fresh)
					if err != nil {
						t.Fatal(err)
					}
					for k, m := range want.Matrices {
						if d := got.Matrices[k].MaxAbsDiff(m); d != 0 {
							t.Fatalf("subcarrier %d differs by %g: the rejected measurement consumed noise", k, d)
						}
					}
				}
			})
		}
	}
}
