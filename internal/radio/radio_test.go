package radio

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"time"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
	"press/internal/stats"
)

// testbed builds the standard NLoS bench: 6×5×3 room, blocked direct
// path, scatterers, 3 parabolic SP4T elements between the endpoints.
func testbed(t testing.TB, seed uint64) *Link {
	t.Helper()
	env := propagation.NewEnvironment(6, 5, 3)
	env.AddScatterers(rand.New(rand.NewPCG(seed, 99)), 6, 30)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(2.6, 2.2, 0), geom.V(2.9, 3.0, 2.2), 35))

	tx := &Radio{
		Node:       propagation.Node{Pos: geom.V(1.5, 2.5, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		TxPowerDBm: 15, NoiseFigureDB: 6,
	}
	rx := &Radio{
		Node:          propagation.Node{Pos: geom.V(4, 2.7, 1.3), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		NoiseFigureDB: 6,
	}
	rng := rand.New(rand.NewPCG(seed, 7))
	pos, err := element.DefaultPlacement.Place(rng, env.Room, tx.Node.Pos, rx.Node.Pos, 3)
	if err != nil {
		t.Fatal(err)
	}
	arr := element.NewArray(
		element.NewParabolicElement(pos[0], rx.Node.Pos),
		element.NewParabolicElement(pos[1], rx.Node.Pos),
		element.NewParabolicElement(pos[2], rx.Node.Pos),
	)
	link, err := NewLink(env, tx, rx, ofdm.WiFi20(), arr, seed)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func TestMeasureCSIShape(t *testing.T) {
	link := testbed(t, 1)
	csi, err := link.MeasureCSI(element.Config{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(csi.SNRdB) != 52 || len(csi.H) != 52 {
		t.Fatalf("CSI has %d subcarriers", len(csi.SNRdB))
	}
}

func TestMeasuredCSITracksTruth(t *testing.T) {
	link := testbed(t, 2)
	cfg := element.Config{0, 1, 2}
	truth := link.TrueResponse(cfg, 0)
	csi, err := link.MeasureCSI(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Compare channel magnitudes in dB on the strong subcarriers (deep
	// nulls are noise-dominated by construction).
	med := stats.Median(csi.SNRdB)
	for k := range truth {
		if csi.SNRdB[k] < med-10 {
			continue
		}
		est := rfphys.AmplitudeToDB(cmplx.Abs(csi.H[k]))
		want := rfphys.AmplitudeToDB(cmplx.Abs(truth[k]))
		if math.Abs(est-want) > 3 {
			t.Fatalf("subcarrier %d: estimated %v dB, truth %v dB", k, est, want)
		}
	}
}

func TestMeasuredSNRInPlausibleRange(t *testing.T) {
	// The paper's Figure 4 axes run 0–50 dB; the simulated testbed should
	// produce median SNRs in that range, not 120 dB or -40 dB.
	link := testbed(t, 3)
	csi, err := link.MeasureCSI(element.Config{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	med := stats.Median(csi.SNRdB)
	if med < 10 || med > 60 {
		t.Errorf("median subcarrier SNR = %v dB; outside the plausible 10–60 window", med)
	}
}

func TestConfigChangesChannel(t *testing.T) {
	link := testbed(t, 4)
	all0 := link.TrueResponse(element.Config{0, 0, 0}, 0)
	allPi := link.TrueResponse(element.Config{2, 2, 2}, 0)
	var maxDiff float64
	for k := range all0 {
		if d := cmplx.Abs(all0[k] - allPi[k]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff == 0 {
		t.Fatal("switching all element phases left the channel untouched")
	}
	// Terminated config must equal the bare environment.
	term, _ := link.Array.AllTerminated()
	termResp := link.TrueResponse(term, 0)
	bare := propagation.Response(propagation.TracePaths(link.Env, link.TX.Node, link.RX.Node, link.Wavelength()),
		link.Grid.Frequencies(), 0)
	for k := range bare {
		if cmplx.Abs(termResp[k]-bare[k]) > 1e-18 {
			t.Fatal("terminated array does not match bare environment")
		}
	}
}

func TestMeasurementDeterministicPerSeed(t *testing.T) {
	a := testbed(t, 5)
	b := testbed(t, 5)
	ca, err := a.MeasureCSI(element.Config{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.MeasureCSI(element.Config{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ca.SNRdB {
		if ca.SNRdB[k] != cb.SNRdB[k] {
			t.Fatal("same seed produced different measurements")
		}
	}
}

func TestSweepCoversAllConfigs(t *testing.T) {
	link := testbed(t, 6)
	ms, err := link.Sweep(PrototypeTiming, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 64 {
		t.Fatalf("sweep measured %d configs, want 64", len(ms))
	}
	seen := make(map[int]bool)
	for _, m := range ms {
		if seen[m.ConfigIdx] {
			t.Fatalf("config %d measured twice", m.ConfigIdx)
		}
		seen[m.ConfigIdx] = true
		if len(m.Config) != 3 {
			t.Fatal("config not retained")
		}
	}
	// The paper: "it takes about 5 seconds to measure all of the
	// combinations".
	dur := PrototypeTiming.SweepDuration(64)
	if dur < 4*time.Second || dur > 6*time.Second {
		t.Errorf("prototype sweep duration = %v, want ≈5 s", dur)
	}
	last := ms[len(ms)-1].At
	if last != PrototypeTiming.SweepDuration(63) {
		t.Errorf("last measurement at %v, want %v", last, PrototypeTiming.SweepDuration(63))
	}
}

func TestSweepTrials(t *testing.T) {
	link := testbed(t, 7)
	trials, err := link.SweepTrials(Timing{PerMeasurement: time.Millisecond}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 3 {
		t.Fatalf("got %d trials", len(trials))
	}
	// Time advances monotonically across trials.
	if trials[1][0].At <= trials[0][63].At {
		t.Error("trial 2 does not start after trial 1")
	}
	// Noise differs between trials but truth is identical (static room):
	// per-config SNR curves should be highly similar but not identical.
	var diff float64
	for k := range trials[0][0].CSI.SNRdB {
		diff += math.Abs(trials[0][0].CSI.SNRdB[k] - trials[1][0].CSI.SNRdB[k])
	}
	if diff == 0 {
		t.Error("independent trials produced identical noise")
	}
	if _, err := link.SweepTrials(Timing{}, 0); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestSweepRequiresArray(t *testing.T) {
	link := testbed(t, 8)
	link.Array = nil
	if _, err := link.Sweep(PrototypeTiming, 0); err == nil {
		t.Error("sweep without array accepted")
	}
}

func TestSNRCurves(t *testing.T) {
	link := testbed(t, 9)
	ms, err := link.Sweep(Timing{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	curves := SNRCurves(ms)
	if len(curves) != 64 || len(curves[0]) != 52 {
		t.Fatalf("curves shape %dx%d", len(curves), len(curves[0]))
	}
}

func TestInvalidateEnvironment(t *testing.T) {
	link := testbed(t, 10)
	before := link.TrueResponse(element.Config{3, 3, 3}, 0)
	// Drop a big metal cabinet into the room; stale cache would hide it.
	link.Env.Blockers = append(link.Env.Blockers,
		geom.NewBlocker(geom.V(3.2, 2.2, 0), geom.V(3.6, 3.2, 2.5), 25))
	link.InvalidateEnvironment()
	after := link.TrueResponse(element.Config{3, 3, 3}, 0)
	var diff float64
	for k := range before {
		diff += cmplx.Abs(before[k] - after[k])
	}
	if diff == 0 {
		t.Error("environment change had no effect after invalidation")
	}
}

func TestNewLinkValidation(t *testing.T) {
	env := propagation.NewEnvironment(6, 5, 3)
	tx := &Radio{Node: propagation.Node{Pos: geom.V(1, 1, 1)}}
	rx := &Radio{Node: propagation.Node{Pos: geom.V(4, 4, 1)}}
	if _, err := NewLink(env, tx, rx, ofdm.Grid{}, nil, 1); err == nil {
		t.Error("invalid grid accepted")
	}
	env.MaxOrder = 99
	if _, err := NewLink(env, tx, rx, ofdm.WiFi20(), nil, 1); err == nil {
		t.Error("invalid environment accepted")
	}
}
