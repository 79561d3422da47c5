package tsdb_test

import (
	"flag"
	"io"
	"testing"
	"time"

	"press/internal/obs/obstest"
	"press/internal/obs/scope"
	"press/internal/obs/tsdb"
)

// These tests drive the metrics-history flags of the shared telemetry
// CLI (internal/obs/scope).

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

func startCLI(t *testing.T, session string, args ...string) (*scope.CLI, *scope.Scope) {
	t.Helper()
	c := parseCLI(t, args...)
	sc, err := c.Start(io.Discard, session)
	if err != nil {
		t.Fatal(err)
	}
	return c, sc
}

func TestCLIDisabledByDefault(t *testing.T) {
	c, sc := startCLI(t, "")
	if sc.TSDB() != nil {
		t.Error("store on without -tsdb-dir")
	}
	if sc.Registry() != nil {
		t.Error("registry on without any telemetry flag")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBadFlags(t *testing.T) {
	c := parseCLI(t, "-tsdb-retention", "-1s")
	if _, err := c.Start(io.Discard, ""); err == nil {
		c.Finish(io.Discard)
		t.Fatal("negative -tsdb-retention accepted")
	}
}

// TestCLITSDBDirAloneCollects: -tsdb-dir must force a registry, bring
// up the store's own collector over it, and persist metrics that a
// fresh read-only store (the pressctl query path) can answer after
// Finish.
func TestCLITSDBDirAloneCollects(t *testing.T) {
	dir := t.TempDir()
	c, sc := startCLI(t, "run-1", "-tsdb-dir", dir, "-export-interval", "25ms")
	if sc.Registry() == nil {
		t.Fatal("-tsdb-dir alone must force a live registry")
	}
	if sc.TSDB() == nil {
		t.Fatal("store missing")
	}
	sc.Registry().Counter("cli_tsdb_work_total").Add(9)
	sc.TSDB().CollectNow()
	// Give the ingest loop a moment to apply the offered batch.
	obstest.WaitUntil(t, 2*time.Second, func() bool { return sc.TSDB().State().Samples > 0 })
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}

	ro, err := tsdb.Open(tsdb.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ro.Instant(`cli_tsdb_work_total{session="run-1"}`, time.Now())
	if err != nil || len(samples) != 1 || samples[0].V != 9 {
		t.Fatalf("persisted total: %v %+v", err, samples)
	}
	// Self-telemetry landed in the same store.
	samples, err = ro.Instant(tsdb.CounterSamples, time.Now())
	if err != nil || len(samples) == 0 {
		t.Fatalf("self-telemetry missing: %v %+v", err, samples)
	}
}
