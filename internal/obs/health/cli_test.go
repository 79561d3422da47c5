package health_test

import (
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"press/internal/obs/health"
	"press/internal/obs/scope"
)

// These tests drive the channel-health flags of the shared telemetry
// CLI (internal/obs/scope).

func TestCLIRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var tele scope.CLI
	tele.Register(fs)
	for _, name := range []string{"alert-rules", "health-interval"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestCLIDisabledDefault(t *testing.T) {
	tele, sc := startCLI(t)
	if sc.Health() != nil {
		t.Error("Health() non-nil with no flags set")
	}
	if err := tele.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBadRulesFailEarly(t *testing.T) {
	var tele scope.CLI
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tele.Register(fs)
	if err := fs.Parse([]string{"-alert-rules", "bogus_kpi>1", "-telemetry-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	sc, err := tele.Start(io.Discard, "")
	if err == nil || !strings.Contains(err.Error(), "unknown KPI") {
		t.Fatalf("Start with bad rules = %v", err)
	}
	// Bad rules are rejected before any listener binds.
	if sc.Server() != nil {
		t.Error("server started despite rule parse error")
	}
}

func TestCLIRulesWithoutServer(t *testing.T) {
	// Alert rules alone (no -telemetry*) still bring the monitor up, with
	// evaluation feeding only Notify/logs — no registry, no server.
	tele, sc := startCLI(t, "-alert-rules", "default", "-health-interval", "1h")
	defer tele.Finish(io.Discard)
	mon := sc.Health()
	if mon == nil {
		t.Fatal("monitor off despite -alert-rules")
	}
	if sc.Registry() != nil || sc.Server() != nil {
		t.Error("alert rules alone brought up a registry or server")
	}
	mon.ObserveSNR(health.SNRWithNull(16, 4, 30))
	mon.Sample()
	if got := len(mon.Alerts().Rules); got != 5 {
		t.Errorf("monitor runs %d rules, want 5 defaults", got)
	}
}

func TestCLIServedEndpoints(t *testing.T) {
	tele, sc := startCLI(t, "-alert-rules", "default", "-health-interval", "1h",
		"-telemetry-addr", "127.0.0.1:0")
	defer tele.Finish(io.Discard)
	base := "http://" + sc.Server().Addr().String()

	dash := getBody(t, base+"/dashboard")
	for _, want := range []string{"PRESS channel health", "<canvas", "EventSource"} {
		if !strings.Contains(dash, want) {
			t.Errorf("/dashboard missing %q", want)
		}
	}

	var alerts health.AlertsSnapshot
	getJSON(t, base+"/alerts", &alerts)
	if len(alerts.Rules) != 5 {
		t.Errorf("/alerts serves %d rules", len(alerts.Rules))
	}
	var snap health.Snapshot
	getJSON(t, base+"/health.json", &snap)
	if snap.IntervalMs != time.Hour.Milliseconds() {
		t.Errorf("/health.json interval_ms = %d", snap.IntervalMs)
	}

	// The JSON endpoints carry the live-data headers.
	for _, path := range []string{"/alerts", "/health.json"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q", path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q", path, cc)
		}
	}
}

func TestCLIFinishIdempotent(t *testing.T) {
	tele, _ := startCLI(t, "-alert-rules", "default", "-health-interval", "1h")
	if err := tele.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := tele.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}
