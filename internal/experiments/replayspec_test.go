package experiments

import (
	"reflect"
	"testing"

	"press/internal/obs/flight"
	"press/internal/obs/scope"
)

func TestRunSpecParamsRoundTrip(t *testing.T) {
	spec := RunSpec{
		Exp: "fig4,fig8", Seed: 99, Trials: 3, Placements: 4,
		Snapshots: 10, Reps: 2, Budget: 150,
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

func TestSpecFromManifestRejects(t *testing.T) {
	if _, err := SpecFromManifest(&flight.Manifest{Binary: "pressctl"}); err == nil {
		t.Error("non-pressim manifest accepted")
	}
	m := &flight.Manifest{Binary: "pressim"}
	if _, err := SpecFromManifest(m); err == nil {
		t.Error("manifest without params accepted")
	}
	m.SetParams([]flight.Param{
		{Key: "exp", Value: "fig4"}, {Key: "trials", Value: "x"},
		{Key: "placements", Value: "1"}, {Key: "snapshots", Value: "1"},
		{Key: "reps", Value: "1"}, {Key: "budget", Value: "1"},
	})
	if _, err := SpecFromManifest(m); err == nil {
		t.Error("non-integer trials accepted")
	}
}

// TestRunSpecExperiments pins the expansion of -exp all and the
// invariants of Registry, the one table pressim and replay dispatch from.
func TestRunSpecExperiments(t *testing.T) {
	all := []string{
		"los", "fig4", "fig5", "fig6", "fig7", "fig8", "coherence",
		"controlplane", "staleness", "scaling", "arrayscale", "faults", "ablation",
	}
	if got := (RunSpec{Exp: "all"}).Experiments(); !reflect.DeepEqual(got, all) {
		t.Errorf("all = %v", got)
	}
	if got := (RunSpec{Exp: " fig4 , fig8 "}).Experiments(); !reflect.DeepEqual(got, []string{"fig4", "fig8"}) {
		t.Errorf("list = %v", got)
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.Name] {
			t.Errorf("experiment %q is registered twice", e.Name)
		}
		seen[e.Name] = true
	}
	// Every entry of all is replayable: RunSpec.Run dispatches exactly
	// the Registry entries.
	for _, name := range all {
		if _, ok := lookup(name); !ok {
			t.Errorf("all runs %q, which RunSpec.Run cannot replay", name)
		}
	}
	// The pressim-only experiments need inputs a RunSpec does not carry,
	// so replay rejects them, as it does an unknown name.
	for _, name := range []string{"concurrent", "record", "replay", "bogus"} {
		if err := (RunSpec{Exp: name}).Run(); err == nil {
			t.Errorf("Run accepted %q", name)
		}
	}
}

func TestRunSpecUnknownExperiment(t *testing.T) {
	if err := (RunSpec{Exp: "bogus"}).Run(); err == nil {
		t.Error("unknown experiment ran without error")
	}
}

// TestRunSpecReplayDeterminism re-runs a small fig5 spec twice with the
// flight observer installed and checks the recorded CSI streams match
// bit for bit — the invariant `pressctl replay` is built on.
func TestRunSpecReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replay determinism run is slow")
	}
	spec := RunSpec{Exp: "fig5", Seed: 7, Trials: 1}
	record := func(dir string) *flight.Run {
		t.Helper()
		rec, err := flight.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		SetScope(scope.Adopt("", nil, nil, nil, rec, nil))
		defer SetScope(nil)
		if err := spec.Run(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		run, err := flight.ReadRun(dir)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a := record(t.TempDir() + "/a")
	b := record(t.TempDir() + "/b")
	if len(a.CSI) == 0 {
		t.Fatal("fig5 recorded no CSI samples")
	}
	if v := flight.Verify(a, b, 0); !v.OK() {
		t.Errorf("re-run diverged: %+v", v)
	}
}
