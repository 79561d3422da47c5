package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"press/internal/obs/flight"
	"press/internal/obs/obstest"
	"press/internal/obs/prof"
)

func TestCountsUpTo(t *testing.T) {
	got := countsUpTo(4)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counts[%d] = %d", i, got[i])
		}
	}
	if len(countsUpTo(0)) != 0 {
		t.Error("countsUpTo(0) should be empty")
	}
}

func TestRunUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-arg invocation accepted")
	}
	if err := run([]string{"warpdrive"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestBuildLink(t *testing.T) {
	link, err := buildLink(442, 3)
	if err != nil {
		t.Fatal(err)
	}
	if link.Array.N() != 3 {
		t.Errorf("array size %d", link.Array.N())
	}
	if _, err := buildLink(442, 0); err == nil {
		t.Error("zero elements accepted")
	}
}

// TestSweepTraceExport runs a tiny real sweep with -trace and validates
// the exported Chrome trace against the schema Perfetto requires: a JSON
// array whose events all carry name/ph/ts/pid/tid.
func TestSweepTraceExport(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "sweep.json")

	// The sweep writes its CSV to os.Stdout; swallow it through a pipe so
	// the test output stays clean.
	savedStdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, r)
	}()
	runErr := run([]string{"convergence",
		"-elements", "3", "-budget", "20", "-trace", tracePath})
	w.Close()
	os.Stdout = savedStdout
	<-drained
	if runErr != nil {
		t.Fatal(runErr)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	sawComplete := false
	for i, e := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		if e["ph"] == "X" {
			sawComplete = true
			if _, ok := e["dur"]; !ok {
				t.Errorf("complete event %d missing dur", i)
			}
		}
	}
	if !sawComplete {
		t.Error("no complete (ph=X) events in trace")
	}
}

// TestSweepFlightRecordsSearch runs a small convergence sweep with
// -flight-dir and checks that the searches reach the run's flight log:
// one decision record per CSI sample (5 searchers × 20 evaluations) and
// a search_eval phase cost. For convergence and budget it checks that
// every leaf phase ran under a root: the hotspot report's leaf time is
// at most its root wall clock.
func TestSweepFlightRecordsSearch(t *testing.T) {
	for _, args := range [][]string{
		{"convergence", "-elements", "3", "-budget", "20"},
		{"budget"},
	} {
		t.Run(args[0], func(t *testing.T) {
			dir := t.TempDir()
			runCaptured(t, append(args, "-flight-dir", dir)...)
			runs, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil || len(runs) != 1 {
				t.Fatalf("flight runs under %s: %v (%v)", dir, runs, err)
			}
			run, err := flight.ReadRun(runs[0])
			if err != nil {
				t.Fatal(err)
			}
			if args[0] == "convergence" && (len(run.CSI) != 100 || len(run.Decisions) != len(run.CSI)) {
				t.Errorf("flight log has %d CSI samples and %d search decisions, want 100 each",
					len(run.CSI), len(run.Decisions))
			}
			searchEval := false
			for _, p := range run.PhaseCosts {
				searchEval = searchEval || (p.Phase == "search_eval" && p.Calls > 0)
			}
			if !searchEval {
				t.Errorf("no search_eval phase cost in %d phase records", len(run.PhaseCosts))
			}
			rep, err := prof.BuildReport(run)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Coverage > 1 {
				t.Errorf("hotspot coverage %.1f%%: %.3f ms of leaf time under %.3f ms of root wall clock",
					100*rep.Coverage, float64(rep.AttributedNs)/1e6, float64(rep.WallNs)/1e6)
			}
		})
	}
}

// TestTelemetryFlagSurface pins the telemetry flags every subcommand
// exposes: exactly the shared set, each with its name, default, and
// usage.
func TestTelemetryFlagSurface(t *testing.T) {
	for sub, own := range map[string][]string{
		"convergence": {"seed", "elements", "budget"},
		"budget":      {"seed", "per-measurement"},
		"density":     {"seed", "max-elements"},
	} {
		t.Run(sub, func(t *testing.T) {
			usage := obstest.HelpOutput(t, func() error { return run([]string{sub, "-h"}) })
			obstest.CheckTelemetryFlags(t, usage, own...)
		})
	}
}
