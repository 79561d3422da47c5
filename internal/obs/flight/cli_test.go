package flight_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/scope"
)

// These tests drive the flight-recorder flags of the shared telemetry
// CLI (internal/obs/scope).

func startCLI(t *testing.T, args ...string) (*scope.CLI, *scope.Scope) {
	t.Helper()
	var c scope.CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Start(io.Discard, "")
	if err != nil {
		t.Fatal(err)
	}
	return &c, sc
}

func TestCLIRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var tele scope.CLI
	tele.Register(fs)
	for _, name := range []string{"flight-dir", "flight-segment-mb"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestCLIDisabledDefault(t *testing.T) {
	tele, sc := startCLI(t)
	if sc.Flight() != nil {
		t.Error("Flight() non-nil with no flags set")
	}
	if err := tele.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIRecordsAndFinishes(t *testing.T) {
	root := t.TempDir()
	tele, sc := startCLI(t, "-flight-dir", root,
		"-alert-rules", "deep_null=null_depth_db>25", "-health-interval", "1h")
	rec := sc.Flight()
	if rec == nil {
		t.Fatal("Flight() nil despite -flight-dir")
	}
	dir := rec.Dir()
	if filepath.Dir(dir) != root || !flight.ValidRunID(filepath.Base(dir)) {
		t.Fatalf("run dir %q not a valid run under %q", dir, root)
	}
	rec.RecordManifest(&flight.Manifest{Binary: "test", Scenario: "t", Seed: 1})
	rec.RecordKPI("k", 3)
	// Alert persistence: a firing rule lands its transition in the log,
	// while the monitor's other notifications (health samples) do not.
	sc.Health().ObserveSNR([]float64{20, 20, 20, 20, -10, 20, 20, 20})
	sc.Health().Sample()
	if err := tele.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.Manifest == nil {
		t.Errorf("run = %+v", run)
	}
	var kpis int
	for _, k := range run.KPIs {
		if k.Name == "k" {
			kpis++
		}
	}
	if kpis != 1 {
		t.Errorf("KPIs = %+v", run.KPIs)
	}
	if len(run.Alerts) != 1 || run.Alerts[0].Rule != "deep_null" || run.Alerts[0].To != uint8(health.StateFiring) {
		t.Errorf("alerts = %+v", run.Alerts)
	}
}

func TestCLIServedRunEndpoints(t *testing.T) {
	root := t.TempDir()
	tele, sc := startCLI(t, "-flight-dir", root, "-telemetry-addr", "127.0.0.1:0")
	defer tele.Finish(io.Discard)
	man := flight.NewManifest("pressctl", "demo", 42)
	sc.Flight().RecordManifest(man)
	sc.Flight().RecordCSI([]float64{10, 20, 30})
	if err := sc.Flight().Flush(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + sc.Server().Addr().String()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs = %d: %s", code, body)
	}
	var runs []*flight.Manifest
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if len(runs) != 1 || runs[0].Seed != 42 {
		t.Fatalf("/runs = %+v", runs)
	}

	code, body = get("/runs/" + runs[0].RunID + ".json")
	if code != http.StatusOK {
		t.Fatalf("/runs/{id}.json = %d: %s", code, body)
	}
	var sum flight.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, body)
	}
	if sum.Measurements != 1 || sum.Subcarriers != 3 || sum.Seed != 42 {
		t.Errorf("summary = %+v", sum)
	}

	if code, _ := get("/runs/no-such-run.json"); code != http.StatusNotFound {
		t.Errorf("missing run = %d, want 404", code)
	}
	if code, _ := get("/runs/evil.id.json"); code != http.StatusBadRequest {
		t.Errorf("invalid id = %d, want 400", code)
	}
}
