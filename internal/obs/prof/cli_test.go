package prof_test

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"press/internal/obs/flight"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// These tests drive the phase-accounting flag and the /profz route of
// the shared telemetry CLI (internal/obs/scope).

func parseCLI(t *testing.T, args ...string) *scope.CLI {
	t.Helper()
	var c scope.CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &c
}

func startCLI(t *testing.T, args ...string) (*scope.CLI, *scope.Scope) {
	t.Helper()
	c := parseCLI(t, args...)
	sc, err := c.Start(io.Discard, "")
	if err != nil {
		t.Fatal(err)
	}
	return c, sc
}

func TestCLIRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c scope.CLI
	c.Register(fs)
	if fs.Lookup("phase-accounting") == nil {
		t.Error("flag -phase-accounting not registered")
	}
}

func TestCLIDisabledDefault(t *testing.T) {
	c, sc := startCLI(t)
	if sc.Prof() != nil {
		t.Error("disabled default constructed a collector")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestCLIExplicitAccounting: -phase-accounting alone builds a collector
// even with no output sink, so /profz-less harnesses can still read
// totals programmatically.
func TestCLIExplicitAccounting(t *testing.T) {
	c, sc := startCLI(t, "-phase-accounting")
	defer c.Finish(io.Discard)
	if sc.Prof() == nil {
		t.Fatal("no collector with -phase-accounting")
	}
}

// TestCLIFlightImpliesAccounting: recording a run implies phase
// accounting, and Finish lands the final cumulative totals in the log.
func TestCLIFlightImpliesAccounting(t *testing.T) {
	dir := t.TempDir()
	c, sc := startCLI(t, "-flight-dir="+dir)
	coll := sc.Prof()
	if coll == nil {
		t.Fatal("flight recording did not imply a collector")
	}
	s := coll.Start(prof.PhaseChannelSum)
	s.End()
	coll.Add(prof.PhaseChannelSum, prof.AuxSubcarrierEvals, 52)
	runDir := sc.Flight().Dir()
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.PhaseCosts) == 0 {
		t.Fatal("no phase-cost records in run log")
	}
	last := run.PhaseCosts[len(run.PhaseCosts)-1]
	if last.Phase != "channel_sum" || last.Calls != 1 {
		t.Errorf("final phase cost = %+v", last)
	}
	rep, err := prof.BuildReport(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) == 0 {
		t.Error("report has no phases")
	}
}

// TestCLIProfzEndpoint: the telemetry server serves /profz with the
// uniform JSON treatment (gzip on request, no-store always).
func TestCLIProfzEndpoint(t *testing.T) {
	c, sc := startCLI(t, "-telemetry-addr=127.0.0.1:0")
	defer c.Finish(io.Discard)
	if sc.Prof() == nil {
		t.Fatal("server without collector")
	}
	sp := sc.Prof().Start(prof.PhaseSweep)
	sc.Prof().Add(prof.PhaseSweep, prof.AuxConfigs, 64)
	time.Sleep(time.Millisecond)
	sp.End()

	req, _ := http.NewRequest("GET", "http://"+sc.Server().Addr().String()+"/profz", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q", cc)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var doc prof.ProfzDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ph := range doc.Phases {
		if ph.Phase == "sweep" && ph.Root && ph.Calls == 1 && ph.Aux["configs"] == 64 {
			found = true
		}
	}
	if !found {
		t.Errorf("sweep phase missing from /profz: %s", body)
	}
	if !strings.Contains(string(body), "uptime_seconds") {
		t.Errorf("/profz missing uptime: %s", body)
	}
}
