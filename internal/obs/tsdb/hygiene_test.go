package tsdb_test

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"press/internal/obs/scope"
)

// routeProbes classifies every route the full telemetry stack
// registers: how to drive it to a 200 JSON response, or why it is
// exempt from the JSON header conventions. The sweep walks
// Server.Patterns(), so a route added anywhere in the stack fails this
// test until it is classified here — no endpoint dodges the hygiene
// rules by being new.
var routeProbes = map[string]struct {
	path string // "" means GET the pattern itself
	skip string // non-empty: exempt, with the reason
}{
	"/metrics":             {skip: "Prometheus text exposition, not JSON"},
	"/metrics.json":        {},
	"/healthz":             {skip: "plain-text liveness probe"},
	"/buildz":              {},
	"/events":              {skip: "SSE stream, never completes"},
	"/debug/pprof/":        {skip: "stdlib pprof handlers"},
	"/debug/pprof/cmdline": {skip: "stdlib pprof handlers"},
	"/debug/pprof/profile": {skip: "stdlib pprof handlers"},
	"/debug/pprof/symbol":  {skip: "stdlib pprof handlers"},
	"/debug/pprof/trace":   {skip: "stdlib pprof handlers"},
	"/alerts":              {},
	"/health.json":         {},
	"/dashboard":           {skip: "HTML shell"},
	"/runs":                {},
	"/runs/":               {skip: "needs a run ID; the bare prefix 404s"},
	"/perfz":               {},
	"/profz":               {},
	"/tracez":              {},
	"/tsdbz":               {},
	"/query":               {path: "/query?query=up"},
	"/query_range":         {path: "/query_range?query=up&start=0&end=60&step=30s"},
	"/sessions":            {},
	"/sessions/":           {skip: "needs a session ID; the bare prefix 404s"},
	// {id} routes are driven through the session the test opens.
	"/sessions/{id}/metrics.json": {path: "/sessions/s1/metrics.json"},
	"/sessions/{id}/metrics":      {skip: "Prometheus text exposition, not JSON"},
	"/sessions/{id}/healthz":      {path: "/sessions/s1/healthz"},
	"/sessions/{id}/tracez":       {path: "/sessions/s1/tracez"},
}

// TestRouteHygiene sweeps every registered route on a fully loaded
// telemetry server and asserts the JSON conventions: Cache-Control:
// no-store (live readings must not be cached) and honest gzip
// negotiation — compressed when the client accepts gzip, identity when
// it does not, including the RFC 7231 "gzip;q=0" refusal.
func TestRouteHygiene(t *testing.T) {
	dir := t.TempDir()
	c, sc := startCLI(t, "",
		"-telemetry-addr", "127.0.0.1:0",
		"-alert-rules", "default",
		"-flight-dir", filepath.Join(dir, "runs"),
		"-phase-accounting",
		"-loop-trace",
		"-tsdb-dir", filepath.Join(dir, "tsdb"),
	)
	defer c.Finish(io.Discard)
	srv := sc.Server()
	if srv == nil {
		t.Fatal("no server despite -telemetry-addr")
	}
	// The session layer's routes ride the same listener; one live
	// session backs the /sessions/{id}/... probes.
	set := scope.NewSet(sc.Registry(), 4)
	defer set.Close()
	if err := set.RegisterRoutes(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Open("s1", scope.Config{Health: true, LoopTracing: true}); err != nil {
		t.Fatal(err)
	}

	h := srv.Handler()
	get := func(path, acceptEncoding string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	for _, pattern := range srv.Patterns() {
		probe, known := routeProbes[pattern]
		if !known {
			t.Errorf("route %q is not classified in routeProbes — add it (and make it follow the JSON conventions)", pattern)
			continue
		}
		if probe.skip != "" {
			continue
		}
		path := probe.path
		if path == "" {
			path = pattern
		}

		plain := get(path, "")
		if plain.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, plain.Code)
			continue
		}
		if ct := plain.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s: Content-Type %q, want application/json", path, ct)
		}
		if cc := plain.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s: Cache-Control %q, want no-store", path, cc)
		}
		if enc := plain.Header().Get("Content-Encoding"); enc != "" {
			t.Errorf("%s: unsolicited Content-Encoding %q", path, enc)
		}

		zipped := get(path, "gzip")
		if enc := zipped.Header().Get("Content-Encoding"); enc != "gzip" {
			t.Errorf("%s: Accept-Encoding gzip got Content-Encoding %q", path, enc)
		} else {
			zr, err := gzip.NewReader(zipped.Body)
			if err != nil {
				t.Errorf("%s: bad gzip body: %v", path, err)
			} else if _, err := io.ReadAll(zr); err != nil {
				t.Errorf("%s: gzip body truncated: %v", path, err)
			}
		}

		for _, refusal := range []string{"gzip;q=0", "gzip;Q=0.000", "identity"} {
			rr := get(path, refusal)
			if enc := rr.Header().Get("Content-Encoding"); enc != "" {
				t.Errorf("%s: Accept-Encoding %q got Content-Encoding %q, want identity", path, refusal, enc)
			}
		}
	}
}
