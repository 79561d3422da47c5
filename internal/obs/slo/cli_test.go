package slo_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"testing"
	"time"

	"press/internal/obs/scope"
	"press/internal/obs/slo"
)

// These tests drive the loop-tracer flags of the shared telemetry CLI
// (internal/obs/scope).

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

func startCLI(t *testing.T, args ...string) *scope.Scope {
	t.Helper()
	c := parseCLI(t, args...)
	sc, err := c.Start(io.Discard, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Finish(io.Discard) })
	return sc
}

func TestCLIDisabledByDefault(t *testing.T) {
	if startCLI(t).Tracer() != nil {
		t.Error("tracer on without any telemetry flag")
	}
}

func TestCLILoopTraceFlag(t *testing.T) {
	tr := startCLI(t, "-loop-trace", "-loop-deadline", "8ms").Tracer()
	if tr == nil {
		t.Fatal("-loop-trace did not create a tracer")
	}
	if tr.Deadline() != 8*time.Millisecond {
		t.Errorf("deadline = %v", tr.Deadline())
	}
}

func TestCLIImpliedByFlightDir(t *testing.T) {
	if startCLI(t, "-flight-dir", t.TempDir()).Tracer() == nil {
		t.Error("flight recording did not imply loop tracing")
	}
}

func TestCLINegativeDeadlineRejected(t *testing.T) {
	c := parseCLI(t, "-loop-deadline", "-1s")
	if _, err := c.Start(io.Discard, ""); err == nil {
		_ = c.Finish(io.Discard)
		t.Fatal("negative -loop-deadline accepted")
	}
}

func TestCLITracezRoute(t *testing.T) {
	sc := startCLI(t, "-telemetry-addr", "127.0.0.1:0", "-loop-deadline", "1ns")
	l := sc.Tracer().StartLoop("served")
	time.Sleep(time.Millisecond)
	l.End()

	resp, err := http.Get("http://" + sc.Server().Addr().String() + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Loops != 1 || rep.Misses != 1 || len(rep.MissExemplars) != 1 {
		t.Errorf("/tracez report: %+v", rep)
	}
}
