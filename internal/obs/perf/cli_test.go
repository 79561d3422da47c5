package perf_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"press/internal/obs/flight"
	"press/internal/obs/obstest"
	"press/internal/obs/perf"
	"press/internal/obs/scope"
)

// These tests drive the runtime-sampler flags of the shared telemetry
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

func startCLI(t *testing.T, args ...string) (*scope.CLI, *scope.Scope) {
	t.Helper()
	c := parseCLI(t, args...)
	sc, err := c.Start(io.Discard, "")
	if err != nil {
		t.Fatal(err)
	}
	return c, sc
}

// perfz fetches and decodes /perfz from the scope's live server.
func perfz(t *testing.T, sc *scope.Scope) perf.PerfzDoc {
	t.Helper()
	resp, err := http.Get("http://" + sc.Server().Addr().String() + "/perfz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc perf.PerfzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCLIDisabledDefault: with no flags the whole stack stays inert.
func TestCLIDisabledDefault(t *testing.T) {
	c, sc := startCLI(t)
	if sc.Registry() != nil || sc.Server() != nil || sc.Flight() != nil {
		t.Error("disabled default constructed live components")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLINegativeInterval(t *testing.T) {
	c := parseCLI(t, "-runtime-metrics-interval=-1s")
	if _, err := c.Start(io.Discard, ""); err == nil {
		c.Finish(io.Discard)
		t.Fatal("negative interval accepted")
	}
}

// TestCLIFullStack is the acceptance path: telemetry server + flight
// recording + runtime sampling, then /metrics, /metrics.json, and
// /perfz all expose the runtime histograms, and the run log holds
// RuntimeSample frames. Also the endpoint-uniformity check: every JSON
// endpoint (/perfz, /runs, /metrics.json) answers gzip requests with
// gzip and marks itself no-store.
func TestCLIFullStack(t *testing.T) {
	flightDir := t.TempDir()
	baseDir := t.TempDir()
	rec := perf.NewRecord("2026-08-06T00:00:00Z")
	rec.Pkg = "press/internal/obs"
	rec.Benchmarks = append(rec.Benchmarks, perf.Benchmark{
		Name: "BenchmarkX", Samples: []perf.BenchSample{{N: 100, NsPerOp: 5}}})
	if err := perf.WriteRecordFile(filepath.Join(baseDir, "BENCH_x.json"), rec); err != nil {
		t.Fatal(err)
	}

	c, sc := startCLI(t,
		"-telemetry-addr=127.0.0.1:0",
		"-flight-dir="+flightDir,
		"-runtime-metrics-interval=10ms",
		"-bench-baselines="+baseDir,
	)
	base := "http://" + sc.Server().Addr().String()

	// Let a few ticks land.
	obstest.WaitUntil(t, 2*time.Second, func() bool { return perfz(t, sc).Sampler.Last.Ticks >= 3 })

	get := func(path string) (*http.Response, string) {
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
		return resp, string(body)
	}

	// /metrics (Prometheus text) exposes the runtime gauges and the GC
	// pause / sched latency histograms.
	_, body := get("/metrics")
	for _, want := range []string{
		perf.GaugeGoroutines, perf.GaugeHeapLiveBytes,
		perf.HistGCPauseSeconds + "_bucket", perf.HistSchedLatSeconds + "_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s:\n%.400s", want, body)
		}
	}
	_, body = get("/metrics.json")
	if !strings.Contains(body, perf.GaugeGoroutines) || !strings.Contains(body, perf.HistGCPauseSeconds) {
		t.Errorf("/metrics.json missing runtime metrics:\n%.400s", body)
	}

	// /perfz reports the live sampler and the committed baseline.
	resp, body := get("/perfz")
	var doc perf.PerfzDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Sampler.Enabled || doc.Sampler.Last.Ticks < 3 {
		t.Errorf("/perfz sampler = %+v", doc.Sampler)
	}
	if len(doc.Baselines) != 1 || doc.Baselines[0].File != "BENCH_x.json" {
		t.Errorf("/perfz baselines = %+v", doc.Baselines)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/perfz Cache-Control = %q", cc)
	}

	// Endpoint uniformity: all JSON endpoints speak gzip and no-store.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	for _, path := range []string{"/perfz", "/runs", "/metrics.json"} {
		req, _ := http.NewRequest(http.MethodGet, base+path, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
			t.Errorf("%s Content-Encoding = %q, want gzip", path, ce)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
	}

	runDir := sc.Flight().Dir()
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}

	// The run log recorded runtime health for rundiff.
	run, err := flight.ReadRun(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Runtime) < 3 {
		t.Fatalf("runtime frames = %d, want >= 3", len(run.Runtime))
	}
	if run.Runtime[0].Goroutines == 0 {
		t.Errorf("runtime frame = %+v", run.Runtime[0])
	}
	sum := flight.Summarize(run)
	if sum.RuntimeSamples != len(run.Runtime) || sum.Goroutines.Max == 0 {
		t.Errorf("summary runtime section = %+v", sum)
	}
}

// TestCLISamplerWithoutOutputs: the flag alone (no registry, no flight
// recorder) starts nothing — there is nowhere to put the samples.
func TestCLISamplerWithoutOutputs(t *testing.T) {
	var logBuf strings.Builder
	c := parseCLI(t, "-runtime-metrics-interval=10ms", "-log-level=warn")
	sc, err := c.Start(&logBuf, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finish(io.Discard)
	if sc.Registry() != nil || sc.Flight() != nil {
		t.Error("sampler flag alone brought up an output")
	}
	if !strings.Contains(logBuf.String(), "no telemetry output") {
		t.Errorf("sampler started with no telemetry outputs; log: %q", logBuf.String())
	}
}
