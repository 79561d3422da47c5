package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"press/internal/experiments"
	"press/internal/obs/obstest"
)

// runQuick invokes the CLI entry point with reduced workloads.
func runQuick(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestRunLoS(t *testing.T) {
	out := runQuick(t, "-exp", "los")
	if !strings.Contains(out, "Passive elements") || !strings.Contains(out, "paper: < 2 dB") {
		t.Errorf("los output missing headline:\n%s", out)
	}
}

func TestRunFig5Reduced(t *testing.T) {
	out := runQuick(t, "-exp", "fig5", "-trials", "2")
	if !strings.Contains(out, "CCDF of null movement") {
		t.Errorf("fig5 output wrong:\n%s", out)
	}
	if !strings.Contains(out, "trial1") {
		t.Errorf("fig5 missing per-trial columns:\n%s", out)
	}
}

func TestRunFig8ReducedWithCSV(t *testing.T) {
	dir := t.TempDir()
	out := runQuick(t, "-exp", "fig8", "-snapshots", "5", "-reps", "1", "-csv", dir)
	if !strings.Contains(out, "condition number") {
		t.Errorf("fig8 output wrong:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,config,x_cond_db,cdf") {
		t.Errorf("fig8.csv header wrong: %q", string(data[:50]))
	}
}

func TestRunCoherence(t *testing.T) {
	out := runQuick(t, "-exp", "coherence")
	if !strings.Contains(out, "prototype budget") || !strings.Contains(out, "4.992s") {
		t.Errorf("coherence output wrong:\n%s", out)
	}
}

func TestRunStaleness(t *testing.T) {
	out := runQuick(t, "-exp", "staleness")
	if !strings.Contains(out, "regret dB") {
		t.Errorf("staleness output wrong:\n%s", out)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	out := runQuick(t, "-exp", "los,coherence")
	if !strings.Contains(out, "Passive elements") || !strings.Contains(out, "prototype budget") {
		t.Errorf("combined run incomplete:\n%s", out)
	}
	// Separator between experiments.
	if !strings.Contains(out, "====") {
		t.Error("missing separator")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-trials", "zebra"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunControlPlane(t *testing.T) {
	out := runQuick(t, "-exp", "controlplane")
	if !strings.Contains(out, "ultrasound") || !strings.Contains(out, "gain@walk") {
		t.Errorf("controlplane output wrong:\n%s", out)
	}
}

func TestRunRecordReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	out := runQuick(t, "-exp", "record", "-record", path, "-trials", "2")
	if !strings.Contains(out, "recorded 2 trials") {
		t.Errorf("record output wrong:\n%s", out)
	}
	out = runQuick(t, "-exp", "replay", "-record", path)
	if !strings.Contains(out, "max null movement") {
		t.Errorf("replay output wrong:\n%s", out)
	}
}

func TestRecordNeedsPath(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "record"}, &buf); err == nil {
		t.Error("record without -record accepted")
	}
	if err := run([]string{"-exp", "replay"}, &buf); err == nil {
		t.Error("replay without -record accepted")
	}
}

// TestTelemetrySnapshot: -telemetry - must append a valid JSON snapshot
// carrying the headline series (search evaluations, channel-solve
// histogram) and per-experiment spans after the experiment output.
func TestTelemetrySnapshot(t *testing.T) {
	out := runQuick(t, "-exp", "los", "-telemetry", "-")
	i := strings.Index(out, "{")
	if i < 0 {
		t.Fatalf("no JSON snapshot in output:\n%s", out)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
		Spans      map[string]map[string]any `json:"spans"`
	}
	if err := json.Unmarshal([]byte(out[i:]), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, out[i:])
	}
	if _, ok := snap.Counters["search_evaluations_total"]; !ok {
		t.Errorf("snapshot missing search_evaluations_total: %v", snap.Counters)
	}
	if _, ok := snap.Histograms["radio_channel_solve_seconds"]; !ok {
		t.Errorf("snapshot missing radio_channel_solve_seconds: %v", snap.Histograms)
	}
	if _, ok := snap.Spans["exp/los"]; !ok {
		t.Errorf("snapshot missing exp/los span: %v", snap.Spans)
	}
	if snap.Counters["radio_csi_measurements_total"] == 0 {
		t.Error("los ran measurements but the counter is zero")
	}
}

// TestTelemetryFileProm: a file destination in Prometheus format.
func TestTelemetryFileProm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	runQuick(t, "-exp", "los", "-telemetry", path, "-telemetry-format", "prom")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE radio_csi_measurements_total counter",
		"radio_channel_solve_seconds_bucket{le=\"+Inf\"}",
		"exp_los_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q:\n%s", want, text)
		}
	}
}

// TestTelemetryFlagSurface pins the telemetry flags pressim exposes:
// exactly the shared set, each with its name, default, and usage.
func TestTelemetryFlagSurface(t *testing.T) {
	usage := obstest.HelpOutput(t, func() error { return run([]string{"-h"}, io.Discard) })
	obstest.CheckTelemetryFlags(t, usage,
		"exp", "trials", "placements", "seed", "snapshots", "reps", "budget",
		"sessions", "loops", "speed", "slow-phase", "csv", "record")
}

// TestLocalExperimentsUnregistered: pressim's own experiments never
// shadow a registry entry, so -exp, its help and replay agree on every
// name.
func TestLocalExperimentsUnregistered(t *testing.T) {
	for _, l := range local {
		for _, e := range experiments.Registry {
			if e.Name == l.name {
				t.Errorf("%q is both pressim's own and a registry entry", l.name)
			}
		}
		if !strings.Contains(expUsage(), "|"+l.name+"|") {
			t.Errorf("-exp help does not list %q", l.name)
		}
	}
}
