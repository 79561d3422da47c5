package perf

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
)

func TestPerfzHandler(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecord("2026-08-06T00:00:00Z")
	rec.Pkg = "press/internal/obs"
	rec.Description = "demo baseline"
	rec.add("BenchmarkX", BenchSample{N: 100, NsPerOp: 5})
	if err := WriteRecordFile(filepath.Join(dir, "BENCH_demo.json"), rec); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "BENCH_bad.json"), []byte("not json"), 0o644)

	s := NewSampler(obs.NewRegistry(), nil, 250*time.Millisecond)
	s.SampleOnce()

	req := httptest.NewRequest(http.MethodGet, "/perfz", nil)
	rw := httptest.NewRecorder()
	PerfzHandler(s, dir)(rw, req)
	resp := rw.Result()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	var doc PerfzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Sampler.Enabled || doc.Sampler.Interval != "250ms" {
		t.Errorf("sampler section = %+v", doc.Sampler)
	}
	if doc.Sampler.Last.Goroutines == 0 {
		t.Errorf("sampler last = %+v", doc.Sampler.Last)
	}
	if len(doc.Baselines) != 2 {
		t.Fatalf("baselines = %+v", doc.Baselines)
	}
	// Sorted by file name: BENCH_bad (parse error reported) then BENCH_demo.
	if doc.Baselines[0].File != "BENCH_bad.json" || doc.Baselines[0].Error == "" {
		t.Errorf("bad baseline = %+v", doc.Baselines[0])
	}
	good := doc.Baselines[1]
	if good.File != "BENCH_demo.json" || good.Pkg != "press/internal/obs" ||
		good.Description != "demo baseline" || good.Benchmarks != 1 {
		t.Errorf("good baseline = %+v", good)
	}
}

// TestPerfzDisabled: without a sampler the endpoint still serves,
// reporting the radar off.
func TestPerfzDisabled(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/perfz", nil)
	rw := httptest.NewRecorder()
	PerfzHandler(nil, "")(rw, req)
	var doc PerfzDoc
	if err := json.NewDecoder(rw.Result().Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sampler.Enabled || len(doc.Baselines) != 0 {
		t.Errorf("doc = %+v", doc)
	}
}

// TestPerfzGzip: /perfz honors Accept-Encoding like every JSON endpoint
// on the telemetry server.
func TestPerfzGzip(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/perfz", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rw := httptest.NewRecorder()
	PerfzHandler(nil, "")(rw, req)
	resp := rw.Result()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"sampler"`) {
		t.Errorf("body: %s", body)
	}
}

// TestPerfzOnServer registers the route on a real telemetry server.
func TestPerfzOnServer(t *testing.T) {
	srv := obs.NewServer(obs.NewRegistry(), 0)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	RegisterRoutes(srv, nil, "")

	resp, err := http.Get("http://" + srv.Addr().String() + "/perfz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc PerfzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sampler.Enabled {
		t.Errorf("doc = %+v", doc)
	}
}
