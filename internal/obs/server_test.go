package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"press/internal/obs/obstest"
)

func newTestServer(t *testing.T, reg *Registry, interval time.Duration) *Server {
	t.Helper()
	s := NewServer(reg, interval)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerMetricsEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("controlplane_frames_sent_total").Add(7)
	reg.Gauge("search_best_objective").Set(33.25)
	s := newTestServer(t, reg, 0)
	base := "http://" + s.Addr().String()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("content type %q", hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, "controlplane_frames_sent_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body, hdr = get(t, base+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/metrics.json status %d type %q", code, hdr.Get("Content-Type"))
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json unparsable: %v", err)
	}
	if snap.Counters["controlplane_frames_sent_total"] != 7 {
		t.Errorf("snapshot counter = %d", snap.Counters["controlplane_frames_sent_total"])
	}

	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok\n") || !strings.Contains(body, "go go") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, hdr = get(t, base+"/buildz")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/buildz status %d type %q", code, hdr.Get("Content-Type"))
	}
	var build Build
	if err := json.Unmarshal([]byte(body), &build); err != nil {
		t.Fatalf("/buildz unparsable: %v", err)
	}
	if build.GoVersion == "" {
		t.Error("/buildz missing go_version")
	}

	code, body, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d (%d bytes)", code, len(body))
	}
}

// latestSample reads the sample a new /events subscriber receives first.
func latestSample(s *Server) Sample {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.latest
}

// subscribers counts the live /events subscriptions.
func subscribers(s *Server) int {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return len(s.pubs)
}

// sseFrame is one Server-Sent Event: name is "" for a registry sample.
type sseFrame struct{ name, data string }

// readFrame reads the next SSE frame from sc.
func readFrame(t *testing.T, sc *bufio.Scanner) sseFrame {
	t.Helper()
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			f.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		case line == "" && f.data != "":
			return f
		}
	}
	t.Fatalf("events stream ended: %v", sc.Err())
	return f
}

// sampleFrame checks that f is a registry sample and returns it.
func sampleFrame(t *testing.T, f sseFrame) Sample {
	t.Helper()
	var smp Sample
	if f.name != "" {
		t.Fatalf("frame %q (%s), want an unnamed sample", f.name, f.data)
	}
	if err := json.Unmarshal([]byte(f.data), &smp); err != nil {
		t.Fatalf("sample not JSON: %v in %q", err, f.data)
	}
	if smp.UnixMs == 0 {
		t.Fatalf("sample without timestamp: %s", f.data)
	}
	return smp
}

// TestServerEventsStream: /events starts with the latest sample, then
// carries the tick's samples and Publish'd health and alert events
// interleaved on one stream, in the order they happened. ?session= is
// not a stream and answers 404.
func TestServerEventsStream(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events_total").Inc()
	s := newTestServer(t, reg, time.Hour) // Start samples once; the test drives every later tick
	reg.Counter("events_total").Inc()     // after the latest sample: must not show in the first frame
	base := "http://" + s.Addr().String()

	code, body, _ := get(t, base+"/events?session=room-03")
	if code != http.StatusNotFound || !strings.Contains(body, "/sessions/room-03/metrics") {
		t.Fatalf("/events?session=room-03 = %d %q, want 404 pointing at /sessions/room-03/metrics", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	obstest.WaitUntil(t, 5*time.Second, func() bool { return subscribers(s) == 1 })

	s.sampleOnce()
	s.Publish("health", map[string]int{"firing": 0})
	reg.Counter("events_total").Inc()
	s.sampleOnce()
	s.Publish("alert", map[string]string{"rule": "deep_null"})

	sc := bufio.NewScanner(resp.Body)
	if got := sampleFrame(t, readFrame(t, sc)).Counters["events_total"]; got != 1 {
		t.Fatalf("first frame counts %d events, want the latest sample's 1", got)
	}
	if got := sampleFrame(t, readFrame(t, sc)).Counters["events_total"]; got != 2 {
		t.Fatalf("second frame counts %d events, want the next tick's 2", got)
	}
	if f := readFrame(t, sc); f.name != "health" || f.data != `{"firing":0}` {
		t.Fatalf("third frame = %+v, want the health event", f)
	}
	if got := sampleFrame(t, readFrame(t, sc)).Counters["events_total"]; got != 3 {
		t.Fatalf("fourth frame counts %d events, want 3", got)
	}
	if f := readFrame(t, sc); f.name != "alert" || f.data != `{"rule":"deep_null"}` {
		t.Fatalf("fifth frame = %+v, want the alert event", f)
	}
}

// stalledWriter is an /events client that has stopped reading: every
// write blocks until release is closed.
type stalledWriter struct {
	release chan struct{}
	hdr     http.Header
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *stalledWriter) Header() http.Header { return w.hdr }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestServerEventsSlowSubscriber: a subscriber that stops reading loses
// events, but neither the sample tick nor Publish waits for it.
// TestServerEventsWithoutRecorder: a server used only through Handler()
// never starts its sample tick, so /events carries published events and
// no samples.
func TestServerEventsWithoutRecorder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events_total").Inc()
	s := NewServer(reg, time.Millisecond)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events without a started tick = %d, want 200", resp.StatusCode)
	}
	obstest.WaitUntil(t, 5*time.Second, func() bool { return subscribers(s) == 1 })
	time.Sleep(5 * time.Millisecond) // five intervals in which no tick may sample
	s.Publish("health", map[string]int{"firing": 0})

	sc := bufio.NewScanner(resp.Body)
	if f := readFrame(t, sc); f.name != "health" || f.data != `{"firing":0}` {
		t.Fatalf("first frame = %+v, want the health event and no sample before it", f)
	}
	if latestSample(s).UnixMs != 0 {
		t.Error("a server never started took a sample")
	}
}

func TestServerEventsSlowSubscriber(t *testing.T) {
	reg := NewRegistry()
	s := NewServer(reg, time.Hour)
	s.sampleOnce()
	w := &stalledWriter{release: make(chan struct{}), hdr: http.Header{}}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx))
	}()
	obstest.WaitUntil(t, 5*time.Second, func() bool { return subscribers(s) == 1 })

	const sent = 200
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for i := 0; i < sent/2; i++ {
			reg.Counter("ticks_total").Inc()
			s.sampleOnce()
			s.Publish("health", i)
		}
	}()
	select {
	case <-ticked:
	case <-time.After(5 * time.Second):
		t.Fatal("the sample tick stalled behind a subscriber that stopped reading")
	}

	close(w.release)
	cancel()
	<-served
	if subscribers(s) != 0 {
		t.Error("a finished stream stays subscribed")
	}
	frames := strings.Count(w.buf.String(), "data: ")
	if frames < 1 || frames >= 1+sent {
		t.Fatalf("stalled subscriber got %d frames of %d sent after the first: want some lost", frames, sent)
	}
}

// TestRecorderSamplesRegistry: one tick of the server's sample recorder
// snapshots the registry's counters and gauges, stamped, as the latest
// sample; the next tick replaces it.
func TestRecorderSamplesRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("frames_total").Add(3)
	reg.Gauge("best").Set(1.5)
	s := NewServer(reg, time.Hour) // never started: the test drives every tick
	s.sampleOnce()
	first := latestSample(s)
	reg.Counter("frames_total").Add(2)
	s.sampleOnce()
	second := latestSample(s)
	if first.Counters["frames_total"] != 3 || second.Counters["frames_total"] != 5 {
		t.Errorf("counter series = %d, %d; want 3, 5",
			first.Counters["frames_total"], second.Counters["frames_total"])
	}
	if first.Gauges["best"] != 1.5 {
		t.Errorf("gauge = %v", first.Gauges["best"])
	}
	if first.UnixMs == 0 || second.UnixMs < first.UnixMs {
		t.Errorf("sample timestamps %d, %d: want set and in order", first.UnixMs, second.UnixMs)
	}
}

// TestRecorderStartStop: Start takes the first sample at once, the tick
// then samples every interval, and Close stops it.
func TestRecorderStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("frames_total").Add(3)
	reg.Gauge("best").Set(1.5)
	s := NewServer(reg, time.Millisecond)
	if latestSample(s).UnixMs != 0 {
		t.Fatal("sampled before Start")
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	first := latestSample(s)
	if first.UnixMs == 0 || first.Counters["frames_total"] != 3 || first.Gauges["best"] != 1.5 {
		t.Fatalf("first sample = %+v, want it taken by Start", first)
	}
	reg.Counter("frames_total").Add(2)
	obstest.WaitUntil(t, 2*time.Second, func() bool { return latestSample(s).Counters["frames_total"] == 5 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	reg.Counter("frames_total").Inc()
	time.Sleep(5 * time.Millisecond)
	if got := latestSample(s).Counters["frames_total"]; got != 5 {
		t.Errorf("sampled %d frames after Close, want the tick stopped at 5", got)
	}
}

func TestServerNilRegistry(t *testing.T) {
	// A server over a nil registry serves empty-but-valid expositions.
	s := newTestServer(t, nil, 0)
	code, body, _ := get(t, "http://"+s.Addr().String()+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
}

func TestServerAddrBeforeStart(t *testing.T) {
	s := NewServer(NewRegistry(), 0)
	if addr := s.Addr(); addr != nil {
		t.Errorf("Addr before Start = %v", addr)
	}
}

// TestRecorderStopWithoutStart: closing a server whose sample tick never
// started returns at once.
func TestRecorderStopWithoutStart(t *testing.T) {
	s := NewServer(NewRegistry(), time.Millisecond)
	done := make(chan struct{})
	go func() { _ = s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close without Start hangs")
	}
}

// BenchmarkServerScrape measures end-to-end /metrics handler latency on
// a populated registry — the cost one Prometheus scrape imposes.
func BenchmarkServerScrape(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Counter(fmt.Sprintf("counter_%d_total", i)).Add(int64(i))
		reg.Gauge(fmt.Sprintf("gauge_%d", i)).Set(float64(i))
	}
	for i := 0; i < 8; i++ {
		h := reg.Histogram(fmt.Sprintf("hist_%d_seconds", i), LatencyBuckets)
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) / 1000)
		}
	}
	handler := NewServer(reg, 0).Handler()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			b.Fatalf("status %d", rw.Code)
		}
	}
}

// BenchmarkServerSampleTick measures one /events sample tick with no
// subscriber — the steady-state overhead -telemetry-addr adds per
// interval when nobody is streaming.
func BenchmarkServerSampleTick(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Counter(fmt.Sprintf("counter_%d_total", i)).Inc()
		reg.Gauge(fmt.Sprintf("gauge_%d", i)).Set(float64(i))
	}
	s := NewServer(reg, time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sampleOnce()
	}
}

// TestServerCloseStopsAccepting: a server closed right after Start must
// refuse connections at once, even when its Serve goroutine has not run
// yet (http.Server.Shutdown closes only the listeners Serve tracks).
func TestServerCloseStopsAccepting(t *testing.T) {
	for i := 0; i < 200; i++ {
		srv := NewServer(NewRegistry(), time.Hour)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr().String()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Fatalf("round %d: %s still accepts connections after Close", i, addr)
		}
	}
}
