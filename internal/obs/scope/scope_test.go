package scope

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
)

func TestNilScopeAccessors(t *testing.T) {
	var s *Scope
	if s.ID() != "" || s.Registry() != nil || s.Logger() != nil ||
		s.Health() != nil || s.Flight() != nil || s.Prof() != nil || s.Tracer() != nil {
		t.Fatal("nil scope accessors must return zero values")
	}
	// All of these must be no-ops, not panics.
	s.Registry().Counter("x").Inc()
	s.ObserveCSI([]float64{1, 2})
	s.ObserveCondProfile([]float64{1, 2})
	s.RecordManifest(flight.NewManifest("t", "t", 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScopeRollUp(t *testing.T) {
	parent := obs.NewRegistry()
	set := NewSet(parent, 0)
	defer set.Close()
	s, err := set.Open("room-1", "")
	if err != nil {
		t.Fatal(err)
	}
	s.Registry().Counter("radio_csi_measurements_total").Add(7)
	if got := s.Registry().Counter("radio_csi_measurements_total").Value(); got != 7 {
		t.Fatalf("scoped counter = %d, want 7", got)
	}
	if got := parent.Counter("radio_csi_measurements_total").Value(); got != 7 {
		t.Fatalf("rolled-up counter = %d, want 7", got)
	}
}

func TestScopeOwnedComponents(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run-1")
	set := NewSet(obs.NewRegistry(), 0)
	defer set.Close()
	s, err := set.Open("room-2", dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry() == nil || s.Flight() == nil {
		t.Fatal("owned registry or flight log missing")
	}
	s.ObserveCSI([]float64{3, 4, 5})
	man := flight.NewManifest("test", "scenario", 42)
	s.RecordManifest(man)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	got, err := flight.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session() != "room-2" {
		t.Fatalf("manifest session = %q, want room-2", got.Session())
	}
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.CSI) != 1 || len(run.CSI[0].SNRdB) != 3 {
		t.Fatalf("flight CSI = %+v, want the one observed curve", run.CSI)
	}
}

func TestAdoptedScopeDoesNotClose(t *testing.T) {
	reg := obs.NewRegistry()
	mon := health.NewMonitor(reg, nil, time.Hour)
	mon.Start()
	defer mon.Stop()
	s := Adopt("cli", reg, nil, mon, nil, nil)
	if s.Registry() != reg || s.Health() != mon {
		t.Fatal("adopted components not exposed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The monitor must still be usable after the adopted scope closes.
	mon.ObserveActuation()
	mon.Sample()
}

func TestSetLRUEviction(t *testing.T) {
	parent := obs.NewRegistry()
	set := NewSet(parent, 8)
	for i := 0; i < 20; i++ {
		if _, err := set.Open(sessionID(i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := set.Len(); got != 8 {
		t.Fatalf("live scopes = %d, want 8", got)
	}
	if got := parent.Counter(CounterScopesEvicted).Value(); got != 12 {
		t.Fatalf("evictions = %d, want 12", got)
	}
	if got := parent.Counter(CounterScopesOpened).Value(); got != 20 {
		t.Fatalf("opened = %d, want 20", got)
	}
	if got := parent.Gauge(GaugeScopesActive).Value(); got != 8 {
		t.Fatalf("active gauge = %v, want 8", got)
	}
	// Oldest 12 evicted, newest 8 remain.
	if set.Get(sessionID(0)) != nil {
		t.Fatal("session 0 should have been evicted")
	}
	if set.Get(sessionID(19)) == nil {
		t.Fatal("session 19 should be live")
	}

	// Touching a session via Get protects it from the next eviction.
	if set.Get(sessionID(12)) == nil {
		t.Fatal("session 12 should be live")
	}
	if _, err := set.Open("fresh", ""); err != nil {
		t.Fatal(err)
	}
	if set.Get(sessionID(12)) == nil {
		t.Fatal("recently touched session 12 was evicted")
	}
	if set.Get(sessionID(13)) != nil {
		t.Fatal("LRU session 13 should have been evicted")
	}

	// Evicted sessions' contributions persist in the parent totals.
	s := set.Get(sessionID(19))
	s.Registry().Counter("work_total").Add(5)
	set.Remove(sessionID(19))
	if got := parent.Counter("work_total").Value(); got != 5 {
		t.Fatalf("parent lost evicted session's counts: %d", got)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSetDuplicateOpen(t *testing.T) {
	set := NewSet(obs.NewRegistry(), 4)
	defer set.Close()
	if _, err := set.Open("dup", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Open("dup", ""); err == nil {
		t.Fatal("duplicate Open should error")
	}
}

func sessionID(i int) string {
	return "room-" + string(rune('A'+i/10)) + string(rune('0'+i%10))
}

func TestRoutes(t *testing.T) {
	parent := obs.NewRegistry()
	srv := obs.NewServer(parent, time.Hour)
	set := NewSet(parent, 16)
	if err := set.RegisterRoutes(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	s, err := set.Open("room-7", "")
	if err != nil {
		t.Fatal(err)
	}
	s.Registry().Counter("evals_total").Add(3)

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if cc := resp.Header.Get("Cache-Control"); resp.StatusCode == 200 &&
			strings.HasPrefix(path, "/sessions") && cc != "no-store" {
			t.Fatalf("%s: Cache-Control = %q, want no-store", path, cc)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get("/sessions")
	if code != 200 {
		t.Fatalf("/sessions: %d", code)
	}
	var listing sessionsPayload
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Active != 1 || len(listing.Sessions) != 1 || listing.Sessions[0].ID != "room-7" {
		t.Fatalf("listing = %+v", listing)
	}

	code, body = get("/sessions/room-7/metrics.json")
	if code != 200 || !strings.Contains(body, "evals_total") {
		t.Fatalf("metrics.json: %d %s", code, body)
	}

	code, body = get("/sessions/room-7/metrics")
	if code != 200 || !strings.Contains(body, `evals_total{session="room-7"} 3`) {
		t.Fatalf("labeled metrics: %d %s", code, body)
	}

	if code, _ = get("/sessions/nope/metrics.json"); code != 404 {
		t.Fatalf("unknown session: %d, want 404", code)
	}
	// A room has no monitor or tracer of its own, so no per-room alert
	// or trace routes exist.
	for _, path := range []string{"/sessions/room-7/healthz", "/sessions/room-7/tracez"} {
		if code, _ = get(path); code != 404 {
			t.Fatalf("%s: %d, want 404", path, code)
		}
	}

	// The process /metrics endpoint reconciles with the scoped write.
	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "evals_total 3") {
		t.Fatalf("process roll-up missing:\n%s", body)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
}
