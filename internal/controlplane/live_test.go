package controlplane

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"press/internal/element"
	"press/internal/obs"
)

// scrapeCounter fetches the live /metrics endpoint and returns the value
// of one counter (0 if absent).
func scrapeCounter(t *testing.T, addr, name string) int64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimPrefix(line, name+" "), 10, 64)
		if err != nil {
			t.Fatalf("scrape: parse %q: %v", line, err)
		}
		return v
	}
	return 0
}

// TestLiveTelemetryEndToEnd drives a real controller↔agent session over
// TCP while an obs.Server scrapes the shared registry live: the frame
// counters must advance between scrapes, /events must deliver at least
// one sampled record, and the trace log must end up with matched
// controller/agent span pairs — the whole observability story under the
// race detector at once.
func TestLiveTelemetryEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tl := obs.NewTraceLog()
	reg.SetTraceLog(tl)
	srv := obs.NewServer(reg, 5*time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	// Agent end over a real TCP listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	arr := testArray(8)
	agent := NewAgent(42, arr)
	agent.AttachScope(regScope(reg))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = agent.ListenAndServe(ctx, ln)
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	ctrl := NewController(NewStreamConn(nc))
	ctrl.AttachScope(regScope(reg))
	ctrl.Timeout = 500 * time.Millisecond
	if err := ctrl.Handshake(ctx); err != nil {
		t.Fatal(err)
	}

	before := scrapeCounter(t, addr, "controlplane_frames_sent_total")

	// Subscribe to /events before driving traffic so a sample containing
	// the new counts is guaranteed to arrive while we listen.
	eventsErr := make(chan error, 1)
	gotSample := make(chan obs.Sample, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/events", addr))
		if err != nil {
			eventsErr <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var s obs.Sample
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
				eventsErr <- err
				return
			}
			if s.Counters["controlplane_frames_sent_total"] > before {
				gotSample <- s
				return
			}
		}
		eventsErr <- fmt.Errorf("events stream ended: %v", sc.Err())
	}()

	// Drive a session: configs, a query, and pings.
	for i := 0; i < 5; i++ {
		cfg := make(element.Config, arr.N())
		for j := range cfg {
			cfg[j] = (i + j) % 4
		}
		if err := ctrl.SetConfig(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctrl.QueryConfig(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	after := scrapeCounter(t, addr, "controlplane_frames_sent_total")
	if after <= before {
		t.Errorf("frames_sent did not advance between scrapes: %d -> %d", before, after)
	}
	if v := scrapeCounter(t, addr, "agent_setconfig_total"); v < 5 {
		t.Errorf("agent_setconfig_total = %d, want >= 5", v)
	}

	select {
	case s := <-gotSample:
		if s.UnixMs == 0 {
			t.Error("sampled record has zero timestamp")
		}
	case err := <-eventsErr:
		t.Fatalf("events stream: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no /events sample with advanced counters within 5s")
	}

	// The trace log must hold matched controller/agent pairs: same
	// nonzero trace ID on both tracks.
	spans := tl.Spans()
	byTrack := map[string]map[uint64]bool{}
	for _, sp := range spans {
		if byTrack[sp.Track] == nil {
			byTrack[sp.Track] = map[uint64]bool{}
		}
		byTrack[sp.Track][sp.TraceID] = true
	}
	matched := 0
	for id := range byTrack["controller"] {
		if id != 0 && byTrack["agent"][id] {
			matched++
		}
	}
	if matched < 5 {
		t.Errorf("only %d matched controller/agent trace pairs (spans: %d)", matched, len(spans))
	}

	cancel()
	<-serveDone
}
