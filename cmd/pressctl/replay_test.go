package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"press/internal/experiments"
	"press/internal/obs/flight"
)

// recordDemo runs the full demo (agent + controller over loopback TCP)
// with the flight recorder on and returns the run directory.
func recordDemo(t *testing.T, root string, args ...string) string {
	t.Helper()
	before, _ := os.ReadDir(root)
	if err := run(append([]string{"demo", "-flight-dir", root}, args...)); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("demo created %d run dirs, want 1 new", len(after)-len(before))
	}
	for _, e := range after {
		seen := false
		for _, b := range before {
			if b.Name() == e.Name() {
				seen = true
			}
		}
		if !seen {
			return filepath.Join(root, e.Name())
		}
	}
	t.Fatal("new run dir not found")
	return ""
}

// TestDemoRecordReplay is the end-to-end invariant the flight recorder
// exists for: a fresh demo recording replays with zero KPI mismatches.
func TestDemoRecordReplay(t *testing.T) {
	root := t.TempDir()
	runDir := recordDemo(t, root)

	var out bytes.Buffer
	if err := runReplay([]string{runDir}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REPLAY OK") || !strings.Contains(out.String(), "0 mismatches") {
		t.Errorf("replay output:\n%s", out.String())
	}

	// JSON mode parses and agrees.
	out.Reset()
	if err := runReplay([]string{"-json", runDir}, &out); err != nil {
		t.Fatalf("replay -json: %v", err)
	}
	var report flight.VerifyReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("replay -json output not JSON: %v\n%s", err, out.String())
	}
	if !report.OK() || report.Compared == 0 {
		t.Errorf("report = %+v", report)
	}
}

// TestDemoReplayDetectsTamper truncates the back half of the recording
// (the tail alone holds only the final phase-cost snapshot, which replay
// does not verify); the regenerated stream is then longer than the
// recorded one and replay must fail.
func TestDemoReplayDetectsTamper(t *testing.T) {
	root := t.TempDir()
	runDir := recordDemo(t, root)
	seg := filepath.Join(runDir, "seg-00000.flr")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runReplay([]string{runDir}, &out); err == nil {
		t.Fatalf("replay of truncated recording passed:\n%s", out.String())
	}
}

// TestReplayOutRefusesRecording replays a run with -out pointing at the
// recording itself: replay must fail rather than overwrite the log it
// is verifying, and the recorded segment must be left byte for byte.
func TestReplayOutRefusesRecording(t *testing.T) {
	runDir := recordDemo(t, t.TempDir())
	seg := filepath.Join(runDir, "seg-00000.flr")
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = runReplay([]string{"-out", runDir, runDir}, &out)
	if err == nil || !strings.Contains(err.Error(), "seg-00000.flr") {
		t.Fatalf("replay -out onto the recording: err %v, want one naming the segment\n%s", err, out.String())
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("recording changed: %d bytes before, %d after", len(before), len(after))
	}
}

func TestRunDiff(t *testing.T) {
	root := t.TempDir()
	a := recordDemo(t, root)
	b := recordDemo(t, root, "-seed", "43")

	var out bytes.Buffer
	if err := runDiffCmd([]string{a, b}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "differing configs") || !strings.Contains(text, "final_min_snr_db") {
		t.Errorf("rundiff output:\n%s", text)
	}

	out.Reset()
	if err := runDiffCmd([]string{"-json", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	var d flight.RunDiff
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatalf("rundiff -json not JSON: %v\n%s", err, out.String())
	}
	if d.SameConfig || d.A.Seed != 42 || d.B.Seed != 43 || len(d.Fields) == 0 {
		t.Errorf("diff = %+v", d)
	}
}

func TestReplayUsageErrors(t *testing.T) {
	if err := runReplay(nil, &bytes.Buffer{}); err == nil {
		t.Error("replay without args accepted")
	}
	if err := runDiffCmd([]string{"only-one"}, &bytes.Buffer{}); err == nil {
		t.Error("rundiff with one arg accepted")
	}
	if err := runReplay([]string{t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("replay of empty dir accepted")
	}
	if err := runReplay([]string{"-flight-dir", t.TempDir(), "positional"}, &bytes.Buffer{}); err == nil {
		t.Error("replay with both RUNDIR and -flight-dir accepted")
	}
	if err := runReplay([]string{"-flight-dir", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("replay -flight-dir without -session accepted")
	}
	if err := runReplay([]string{"-flight-dir", t.TempDir(), "-session", "nope"}, &bytes.Buffer{}); err == nil {
		t.Error("replay of unknown session accepted")
	}
}

// TestReplayBySession drives the concurrent multi-room experiment into a
// shared flight root, then selects individual rooms' runs by session ID
// for replay and cross-run diffing — the workflow session tagging
// exists for.
func TestReplayBySession(t *testing.T) {
	root := t.TempDir()
	res, err := experiments.RunConcurrent(experiments.ConcurrentOptions{
		Sessions: 3, Budget: 12, Workers: 2, FlightRoot: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reconciled() {
		t.Fatalf("roll-up mismatch: %+v", res)
	}

	var out bytes.Buffer
	if err := runReplay([]string{"-flight-dir", root, "-session", "room-01"}, &out); err != nil {
		t.Fatalf("replay -session: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REPLAY OK") {
		t.Errorf("replay output:\n%s", out.String())
	}

	out.Reset()
	if err := runDiffCmd([]string{"-flight-dir", root, "-session-a", "room-00", "-session-b", "room-02"}, &out); err != nil {
		t.Fatal(err)
	}
	var d flight.RunDiff
	text := out.String()
	out.Reset()
	if err := runDiffCmd([]string{"-json", "-flight-dir", root, "-session-a", "room-00", "-session-b", "room-02"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatalf("rundiff -json not JSON: %v\n%s", err, out.String())
	}
	if d.A.Seed != 442 || d.B.Seed != 444 {
		t.Errorf("session selection picked wrong runs: %+v\n%s", d, text)
	}
}

// TestDemoRunIsSessionTagged: the demo adopts its telemetry stack as
// one "demo" session, so its recording is selectable from a shared
// flight root by session ID too.
func TestDemoRunIsSessionTagged(t *testing.T) {
	root := t.TempDir()
	runDir := recordDemo(t, root)
	dir, man, err := flight.FindRun(root, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if dir != runDir || man.Session() != "demo" {
		t.Errorf("FindRun = %s (session %q), want %s", dir, man.Session(), runDir)
	}
}
