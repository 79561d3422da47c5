package trace

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
	"press/internal/stats"
)

// recordedSweep builds a small link, sweeps it twice, and records it.
func recordedSweep(t *testing.T) (*radio.Link, *Record) {
	t.Helper()
	env := propagation.NewEnvironment(8, 6, 3)
	env.AddScatterers(rand.New(rand.NewPCG(5, 5)), 5, 25)
	tx := &radio.Radio{
		Node:       propagation.Node{Pos: geom.V(2, 3, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		TxPowerDBm: 15, NoiseFigureDB: 6,
	}
	rx := &radio.Radio{
		Node:          propagation.Node{Pos: geom.V(6, 3.2, 1.3), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		NoiseFigureDB: 6,
	}
	arr := element.NewArray(
		element.NewOmniElement(geom.V(4, 2, 1.5)),
		element.NewOmniElement(geom.V(4, 4, 1.5)),
	)
	link, err := radio.NewLink(env, tx, rx, ofdm.WiFi20(), arr, 5)
	if err != nil {
		t.Fatal(err)
	}
	trials, err := link.SweepTrials(radio.Timing{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := FromSweepTrials(link, trials, "unit test sweep")
	if err != nil {
		t.Fatal(err)
	}
	return link, rec
}

func TestRecordRoundTrip(t *testing.T) {
	_, rec := recordedSweep(t)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Description != "unit test sweep" {
		t.Errorf("description = %q", loaded.Description)
	}
	if len(loaded.ConfigNames) != 16 || len(loaded.Trials) != 2 {
		t.Fatalf("loaded %d configs, %d trials", len(loaded.ConfigNames), len(loaded.Trials))
	}
	if loaded.NumSubcarriers() != 52 {
		t.Errorf("subcarriers = %d", loaded.NumSubcarriers())
	}
	// Exact SNR preservation.
	orig := rec.Trials[1].Measurements[7].SNRdB
	got := loaded.Trials[1].Measurements[7].SNRdB
	for k := range orig {
		if orig[k] != got[k] {
			t.Fatalf("SNR drifted through JSON at subcarrier %d", k)
		}
	}
}

func TestRecordedAnalysisMatchesLive(t *testing.T) {
	// The Figures 4–6 workflow: statistics computed on the recorded data
	// must equal statistics computed on the live measurements.
	link, rec := recordedSweep(t)
	_ = link
	curves, err := rec.Curves(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 16 {
		t.Fatalf("curves = %d", len(curves))
	}
	for i, c := range curves {
		if c == nil {
			t.Fatalf("config %d unmeasured in trial 0", i)
		}
	}
	mins := stats.MinPerCurve(curves)
	if len(mins) != 16 {
		t.Fatalf("mins = %d", len(mins))
	}
	// Spot check one value against the raw record.
	if mins[3] != stats.Min(rec.Trials[0].Measurements[3].SNRdB) {
		t.Error("recorded analysis mismatch")
	}
}

func TestLoadRejectsBadRecords(t *testing.T) {
	const (
		head = `"center_hz":2.4e9,"spacing_hz":312500`
		one  = `"trials":[{"measurements":[{"config":0,"at_s":0,"snr_db":[1]}]}]`
	)
	cases := []struct{ name, raw, want string }{
		{"bad version", `{"version":99,` + head + `,"config_names":["a"],` + one + `}`, "unsupported version"},
		{"no configs", `{"version":1,` + head + `,"config_names":[],"trials":[]}`, "no configurations"},
		{"bad grid", `{"version":1,"center_hz":0,"spacing_hz":312500,"config_names":["a"],` + one + `}`, "grid"},
		{"config range", `{"version":1,` + head + `,"config_names":["a"],"trials":[{"measurements":[{"config":5,"at_s":0,"snr_db":[1]}]}]}`, "out of range"},
		{"empty snr", `{"version":1,` + head + `,"config_names":["a"],"trials":[{"measurements":[{"config":0,"at_s":0,"snr_db":[]}]}]}`, "empty SNR"},
		{"ragged snr", `{"version":1,` + head + `,"config_names":["a","b"],"trials":[{"measurements":[{"config":0,"at_s":0,"snr_db":[1,2]},{"config":1,"at_s":1,"snr_db":[1]}]}]}`, "subcarriers"},
		{"config measured twice", `{"version":1,` + head + `,"config_names":["a","b"],"trials":[{"measurements":[{"config":1,"at_s":0,"snr_db":[1]},{"config":1,"at_s":1,"snr_db":[2]}]}]}`, "measured twice"},
		{"no trials", `{"version":1,` + head + `,"config_names":["a"],"trials":[]}`, "no measurements"},
		{"only empty trials", `{"version":1,` + head + `,"config_names":["a"],"trials":[{"measurements":[]},{}]}`, "no measurements"},
		{"unknown field", `{"version":1,` + head + `,"config_names":["a"],` + one + `,"surprise":1}`, "unknown field"},
		{"not json at all", `hello`, "load"},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The same config in two different trials is a repetition, not a
	// duplicate.
	ok := `{"version":1,` + head + `,"config_names":["a"],"trials":[{"measurements":[{"config":0,"at_s":0,"snr_db":[1]}]},{"measurements":[{"config":0,"at_s":1,"snr_db":[2]}]}]}`
	if _, err := Load(strings.NewReader(ok)); err != nil {
		t.Errorf("two trials of one config rejected: %v", err)
	}
}

func TestCurvesValidation(t *testing.T) {
	_, rec := recordedSweep(t)
	if _, err := rec.Curves(-1); err == nil {
		t.Error("negative trial accepted")
	}
	if _, err := rec.Curves(99); err == nil {
		t.Error("out-of-range trial accepted")
	}
}

func TestFromSweepTrialsValidation(t *testing.T) {
	link, _ := recordedSweep(t)
	bare := *link
	bare.Array = nil
	if _, err := FromSweepTrials(&bare, nil, ""); err == nil {
		t.Error("array-less link accepted")
	}
}
