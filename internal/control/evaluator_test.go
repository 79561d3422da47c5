package control

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// controlTestbed builds a small NLoS link with a 3-element array.
func controlTestbed(t *testing.T, seed uint64) *radio.Link {
	t.Helper()
	env := propagation.NewEnvironment(6, 5, 3)
	env.AddScatterers(rand.New(rand.NewPCG(seed, 99)), 6, 30)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(2.6, 2.2, 0), geom.V(2.9, 3.0, 2.2), 35))
	tx := &radio.Radio{
		Node:       propagation.Node{Pos: geom.V(1.5, 2.5, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		TxPowerDBm: 15, NoiseFigureDB: 6,
	}
	rx := &radio.Radio{
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
	link, err := radio.NewLink(env, tx, rx, ofdm.WiFi20(), arr, seed)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func TestLinkEvaluatorEndToEnd(t *testing.T) {
	link := controlTestbed(t, 21)
	ev := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}, Timing: radio.Timing{PerMeasurement: time.Millisecond}}

	res, err := (Exhaustive{}).Search(link.Array, ev.Eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 64 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	// The optimized configuration must beat the all-terminated baseline:
	// the whole point of PRESS.
	term, _ := link.Array.AllTerminated()
	base, err := ev.Eval(term)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore < base {
		t.Errorf("best config (%v dB) worse than terminated baseline (%v dB)", res.BestScore, base)
	}
	if ev.Elapsed() < 64*time.Millisecond {
		t.Errorf("evaluator elapsed %v; should account per-measurement time", ev.Elapsed())
	}
}

func TestGreedyCompetitiveOnRealChannel(t *testing.T) {
	link := controlTestbed(t, 22)
	evEx := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}}
	exact, err := (Exhaustive{}).Search(link.Array, evEx.Eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One restart: with measurement noise each greedy pass can "improve"
	// spuriously and trigger another pass, so multi-restart runs are not
	// guaranteed to undercut exhaustive on a space this small.
	evGr := &Evaluator{Goals: []Goal{{Link: link, Objective: MaxMinSNR{}}}}
	greedy, err := (Greedy{Rng: rand.New(rand.NewPCG(1, 2)), Restarts: 1}).Search(link.Array, evGr.Eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy should come within a few dB of exhaustive while spending
	// fewer measurements (measurement noise adds slack).
	if greedy.BestScore < exact.BestScore-6 {
		t.Errorf("greedy %v dB far below exhaustive %v dB", greedy.BestScore, exact.BestScore)
	}
	if greedy.Evaluations >= exact.Evaluations {
		t.Errorf("greedy used %d evaluations, exhaustive %d", greedy.Evaluations, exact.Evaluations)
	}
}

func TestCoherenceBudget(t *testing.T) {
	timing := radio.Timing{PerMeasurement: 70 * time.Millisecond, SwitchLatency: 8 * time.Millisecond}
	// 80 ms coherence with 78 ms per measurement: one shot.
	if got := CoherenceBudget(80*time.Millisecond, timing); got != 1 {
		t.Errorf("budget = %d, want 1", got)
	}
	// Fast control plane: 1 ms per measurement, 80 ms coherence: 80.
	fast := radio.Timing{PerMeasurement: time.Millisecond}
	if got := CoherenceBudget(80*time.Millisecond, fast); got != 80 {
		t.Errorf("budget = %d, want 80", got)
	}
	// Static room: unlimited.
	if got := CoherenceBudget(0, timing); got != 1 {
		t.Errorf("zero coherence budget = %d, want 1 (channel changes immediately)", got)
	}
	if got := CoherenceBudget(time.Hour, radio.Timing{}); got != 0 {
		t.Errorf("zero-cost timing budget = %d, want 0 (unlimited)", got)
	}
}

func TestCoherenceBudgetAtSpeed(t *testing.T) {
	timing := radio.Timing{PerMeasurement: time.Millisecond}
	// Walking pace at 2.462 GHz: Tc ≈ 100 ms → ≈100 measurements.
	slow := CoherenceBudgetAtSpeed(0.5, 2.462e9, timing)
	if slow < 50 || slow > 200 {
		t.Errorf("budget @0.5 mph = %d, want ≈100", slow)
	}
	// Running: Tc ≈ 8 ms → single digits.
	fast := CoherenceBudgetAtSpeed(6, 2.462e9, timing)
	if fast < 4 || fast > 20 {
		t.Errorf("budget @6 mph = %d, want ≈8", fast)
	}
	// Static: unlimited.
	if got := CoherenceBudgetAtSpeed(0, 2.462e9, timing); got != 0 {
		t.Errorf("static budget = %d, want 0", got)
	}
	// The paper's testbed at walking pace: budget collapses to 1 — the
	// §3.2 latency problem in one number.
	proto := CoherenceBudgetAtSpeed(0.5, 2.462e9, radio.PrototypeTiming)
	if proto != 1 {
		t.Errorf("prototype budget @0.5 mph = %d, want 1", proto)
	}
}

func TestHarmonizeEvaluator(t *testing.T) {
	env := propagation.NewEnvironment(6, 5, 3)
	env.AddScatterers(rand.New(rand.NewPCG(41, 99)), 6, 30)
	mk := func(txPos, rxPos geom.Vec) (*radio.Radio, *radio.Radio) {
		return &radio.Radio{
				Node:       propagation.Node{Pos: txPos, Pattern: rfphys.Omni{PeakGainDBi: 2}},
				TxPowerDBm: 15, NoiseFigureDB: 6,
			}, &radio.Radio{
				Node:          propagation.Node{Pos: rxPos, Pattern: rfphys.Omni{PeakGainDBi: 2}},
				NoiseFigureDB: 6,
			}
	}
	txA, rxA := mk(geom.V(1.5, 2, 1.5), geom.V(4, 1.8, 1.3))
	txB, rxB := mk(geom.V(1.5, 3.2, 1.5), geom.V(4, 3.4, 1.3))
	arr := element.NewArray(
		&element.Element{Pos: geom.V(2.75, 1.2, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}, LossDB: 1, States: element.FourPhaseStates()},
		&element.Element{Pos: geom.V(2.75, 3.9, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}, LossDB: 1, States: element.FourPhaseStates()},
	)
	grid := ofdm.USRP102()
	linkA, err := radio.NewLink(env, txA, rxA, grid, arr, 1)
	if err != nil {
		t.Fatal(err)
	}
	linkB, err := radio.NewLink(env, txB, rxB, grid, arr, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Each link hands its estimate's SNRs to OnCSI, so every score can be
	// recomputed from the very soundings the evaluator took.
	var snrA, snrB []float64
	linkA.OnCSI = func(snr []float64) { snrA = append(snrA[:0], snr...) }
	linkB.OnCSI = func(snr []float64) { snrB = append(snrB[:0], snr...) }

	// Link A wants the lower half band and link B the upper (§3.2.2).
	ev := &Evaluator{Goals: []Goal{
		{Link: linkA, Objective: HalfBandContrast{PreferLower: true}},
		{Link: linkB, Objective: HalfBandContrast{PreferLower: false}},
	}}
	checked := 0
	eval := func(cfg element.Config) (float64, error) {
		got, err := ev.Eval(cfg)
		if err != nil {
			return 0, err
		}
		want := HalfBandContrast{PreferLower: true}.Score(&ofdm.CSI{SNRdB: snrA}) +
			HalfBandContrast{PreferLower: false}.Score(&ofdm.CSI{SNRdB: snrB})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: score %v, want A+B contrast %v", cfg, got, want)
		}
		checked++
		return got, nil
	}
	res, err := (Exhaustive{}).Search(arr, eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 16 || checked != 16 {
		t.Errorf("evaluations = %d, checked %d, want 16", res.Evaluations, checked)
	}
	if len(res.Best) != 2 {
		t.Error("no best configuration")
	}
}

func TestEvaluatorWeightsAndActuate(t *testing.T) {
	timing := radio.Timing{PerMeasurement: time.Millisecond, SwitchLatency: time.Millisecond}
	cfg, other := element.Config{0, 1, 2}, element.Config{3, 2, 1}
	boom := errors.New("actuation failed")
	for _, tc := range []struct {
		name    string
		weight  float64
		actuate func(element.Config) (element.Config, error)
		// measured is the configuration the score must come from.
		measured element.Config
		scale    float64
		wantErr  error
	}{
		{name: "weight 0 is 1", measured: cfg, scale: 1},
		{name: "weight 2 doubles", weight: 2, measured: cfg, scale: 2},
		{name: "actuate substitutes", measured: other, scale: 1,
			actuate: func(element.Config) (element.Config, error) { return other, nil }},
		{name: "actuate error", wantErr: boom,
			actuate: func(element.Config) (element.Config, error) { return nil, boom }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// twin is built from the same seed, so its n-th sounding of
			// a configuration matches the evaluator link's n-th bit for bit.
			link, twin := controlTestbed(t, 21), controlTestbed(t, 21)
			soundings := 0
			link.OnCSI = func([]float64) { soundings++ }
			ev := &Evaluator{
				Goals:   []Goal{{Link: link, Objective: MaxMinSNR{}, Weight: tc.weight}},
				Timing:  timing,
				Actuate: tc.actuate,
			}
			got, err := ev.Eval(cfg)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || soundings != 0 || ev.Elapsed() != 0 {
					t.Fatalf("err %v, %d soundings, elapsed %v; want %v, none, 0", err, soundings, ev.Elapsed(), tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			csi, err := twin.MeasureCSI(tc.measured, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.scale * (MaxMinSNR{}).Score(csi); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("score %v, want %v", got, want)
			}
			if soundings != 1 || ev.Elapsed() != timing.PerMeasurement+timing.SwitchLatency {
				t.Errorf("%d soundings, elapsed %v; want 1, %v", soundings, ev.Elapsed(), timing.PerMeasurement+timing.SwitchLatency)
			}
		})
	}
}
