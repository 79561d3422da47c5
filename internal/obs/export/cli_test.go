package export_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"press/internal/obs/export"
	"press/internal/obs/obstest"
	"press/internal/obs/scope"
)

// These tests drive the push-export flags of the shared telemetry CLI
// (internal/obs/scope).

// captureServer is an httptest collector: it accumulates every POSTed
// payload's batches.
type captureServer struct {
	mu      sync.Mutex
	batches []export.Batch
	fail    bool
}

func (cs *captureServer) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		payload, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cs.mu.Lock()
		defer cs.mu.Unlock()
		if cs.fail {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		bs, err := export.DecodeBatches(payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cs.batches = append(cs.batches, bs...)
		w.WriteHeader(http.StatusNoContent)
	}
}

func (cs *captureServer) counterTotal(session, name string) int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var total int64
	for _, b := range cs.batches {
		if b.Session == session {
			total += b.Counters[name]
		}
	}
	return total
}

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

// waitFor polls cond for up to five seconds, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !obstest.WaitUntil(t, 5*time.Second, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestCLIDisabledByDefault(t *testing.T) {
	c, sc := startCLI(t, "")
	if sc.Exporter() != nil {
		t.Error("exporter on without -export-url")
	}
	if sc.Registry() != nil {
		t.Error("registry on without any telemetry flag")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBadFlags(t *testing.T) {
	c := parseCLI(t, "-export-format", "xml")
	if _, err := c.Start(io.Discard, ""); err == nil {
		c.Finish(io.Discard)
		t.Fatal("bad -export-format accepted")
	}
	c = parseCLI(t, "-export-interval", "-1s")
	if _, err := c.Start(io.Discard, ""); err == nil {
		c.Finish(io.Discard)
		t.Fatal("negative -export-interval accepted")
	}
}

func TestCLIExportURLAloneForcesRegistry(t *testing.T) {
	cs := &captureServer{}
	srv := httptest.NewServer(cs.handler())
	defer srv.Close()

	// The session handed to Start labels the root registry's batches.
	c, sc := startCLI(t, "cli-run", "-export-url", srv.URL, "-export-interval", "1h")
	if sc.Registry() == nil {
		t.Fatal("-export-url alone must force a live registry")
	}
	if sc.Exporter() == nil {
		t.Fatal("no exporter with -export-url")
	}
	sc.Registry().Counter("cli_work_total").Add(4)
	sc.Exporter().CollectNow()
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := cs.counterTotal("cli-run", "cli_work_total"); got != 4 {
		t.Errorf("collector saw cli_work_total = %d, want 4", got)
	}
}

func TestCLIExportzAndHealthz(t *testing.T) {
	cs := &captureServer{}
	collector := httptest.NewServer(cs.handler())
	defer collector.Close()

	c, sc := startCLI(t, "",
		"-export-url", collector.URL,
		"-export-interval", "1h",
		"-telemetry-addr", "127.0.0.1:0")
	defer c.Finish(io.Discard)
	base := "http://" + sc.Server().Addr().String()

	resp, err := http.Get(base + "/exportz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st export.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Sink != collector.URL {
		t.Errorf("/exportz = %+v", st)
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(body), "export: queue") {
		t.Errorf("/healthz missing export status line:\n%s", body)
	}
}

func TestCLIRetriesAgainstFlappingCollector(t *testing.T) {
	cs := &captureServer{fail: true}
	collector := httptest.NewServer(cs.handler())
	defer collector.Close()

	c, sc := startCLI(t, "", "-export-url", collector.URL, "-export-interval", "5ms")
	sc.Registry().Counter("flap_total").Add(3)
	waitFor(t, "failures against 503 collector", func() bool {
		return sc.Exporter().State().SendFailures > 0
	})
	cs.mu.Lock()
	cs.fail = false // collector restarts
	cs.mu.Unlock()
	waitFor(t, "recovery after restart", func() bool {
		return cs.counterTotal("", "flap_total") == 3
	})
	st := sc.Exporter().State()
	if st.Retries == 0 {
		t.Error("no retries counted across collector restart")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIFileSinkViaFlags(t *testing.T) {
	path := t.TempDir() + "/tele.ndjson"
	c, sc := startCLI(t, "", "-export-url", path, "-export-interval", "1h")
	sc.Registry().Counter("file_work_total").Add(2)
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := export.DecodeBatches(data)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range batches {
		total += b.Counters["file_work_total"]
	}
	if total != 2 {
		t.Errorf("file sink total = %d, want 2", total)
	}
}
