package experiments

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"press/internal/obs/flight"
	"press/internal/obs/scope"
	"press/internal/obs/slo"
)

func TestRunDemoStaticEndpoint(t *testing.T) {
	res, err := runDemo(DemoOptions{Seed: 7, Loops: 3, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadline != 0 {
		t.Errorf("static endpoint got deadline %v", res.Deadline)
	}
	if len(res.Loops) != 3 || res.Misses != 0 || res.missRatio() != 0 {
		t.Errorf("static demo: %d loops, %d misses", len(res.Loops), res.Misses)
	}
	for _, row := range res.Loops {
		if row.Latency <= 0 || row.Missed || math.IsNaN(row.GainDB) {
			t.Errorf("bad row: %+v", row)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "miss ratio 0.00") {
		t.Errorf("Print missing miss ratio:\n%s", sb.String())
	}
}

// TestRunDemoTracedMisses runs the demo with a stall longer than the
// coherence deadline under an ambient loop tracer and checks that both
// the experiment's own verdicts and the regenerated KindLoop flight
// frames agree every loop missed.
func TestRunDemoTracedMisses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	rec, err := flight.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := slo.NewTracer(nil, slo.Config{Flight: rec})
	SetScope(scope.Adopt("", nil, nil, nil, rec, nil).WithTracer(tr))
	defer SetScope(nil)

	res, err := runDemo(DemoOptions{Seed: 7, Loops: 2, Budget: 4, SpeedMph: 6, SlowPhase: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadline <= 0 || res.Deadline > 30*time.Millisecond {
		t.Fatalf("6 mph deadline = %v", res.Deadline)
	}
	if res.Misses != 2 || res.missRatio() != 1 {
		t.Errorf("stalled demo: %d/%d missed", res.Misses, len(res.Loops))
	}
	if tr.Deadline() != res.Deadline {
		t.Errorf("demo did not hand the tracer its deadline: %v != %v", tr.Deadline(), res.Deadline)
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Loops) != 2 {
		t.Fatalf("recorded %d KindLoop frames, want 2", len(run.Loops))
	}
	for _, lr := range run.Loops {
		if !lr.Missed || lr.Name != "demo" || lr.DeadlineNs != int64(res.Deadline) {
			t.Errorf("loop frame: %+v", lr)
		}
	}
}

func TestRunDemoRejectsNegativeStall(t *testing.T) {
	if _, err := runDemo(DemoOptions{SlowPhase: -time.Second}); err == nil {
		t.Error("negative slow-phase accepted")
	}
}

func TestRunSpecDemoParamsRoundTrip(t *testing.T) {
	spec := RunSpec{
		Exp: "demo", Seed: 9, Budget: 11,
		Loops: 7, Speed: 3.5, SlowPhase: 25 * time.Millisecond,
	}
	man := &flight.Manifest{Binary: "pressim", Scenario: spec.Exp, Seed: spec.Seed}
	man.SetParams(spec.Params())
	got, err := SpecFromManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("round trip = %+v, want %+v", got, spec)
	}
}

// TestSpecFromManifestLegacyParams checks that manifests recorded before
// the demo experiment existed — no loops/speed/slow_phase params — still
// parse.
func TestSpecFromManifestLegacyParams(t *testing.T) {
	man := &flight.Manifest{Binary: "pressim", Scenario: "fig4", Seed: 3}
	man.SetParams([]flight.Param{
		{Key: "exp", Value: "fig4"}, {Key: "trials", Value: "2"},
		{Key: "placements", Value: "4"}, {Key: "snapshots", Value: "1"},
		{Key: "reps", Value: "1"}, {Key: "budget", Value: "50"},
	})
	got, err := SpecFromManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loops != 0 || got.Speed != 0 || got.SlowPhase != 0 {
		t.Errorf("legacy manifest grew demo params: %+v", got)
	}
}
