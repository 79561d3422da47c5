package obs

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestServerJSONHeadersAndGzip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gz_total").Add(3)
	s := newTestServer(t, reg, 0)
	base := "http://" + s.Addr().String()

	// Plain request: explicit content type, no-store, no encoding.
	_, _, hdr := get(t, base+"/metrics.json")
	if cc := hdr.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	if enc := hdr.Get("Content-Encoding"); enc != "" {
		t.Errorf("unrequested Content-Encoding %q", enc)
	}

	// Gzip-accepting request: compressed body that inflates to the same
	// snapshot. A raw transport avoids the client's transparent decoding.
	req, err := http.NewRequest(http.MethodGet, base+"/metrics.json", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := (&http.Transport{DisableCompression: true}).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("gzipped body unparsable: %v", err)
	}
	if snap.Counters["gz_total"] != 3 {
		t.Errorf("counter through gzip = %d", snap.Counters["gz_total"])
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"gzip, deflate, br", true},
		{"deflate, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip ; q=0.0", false},
		{"br", false},
		{"notgzip", false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

func TestServerPublishNamedEvents(t *testing.T) {
	reg := NewRegistry()
	s := newTestServer(t, reg, time.Hour) // slow: only published events flow

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.Addr().String()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go func() {
		// Let the subscription land, then publish.
		time.Sleep(50 * time.Millisecond)
		s.Publish("custom", map[string]any{"answer": 42})
	}()

	sc := bufio.NewScanner(resp.Body)
	var sawName bool
	for sc.Scan() {
		line := sc.Text()
		if line == "event: custom" {
			sawName = true
			continue
		}
		if sawName && strings.HasPrefix(line, "data: ") {
			var got map[string]float64
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &got); err != nil {
				t.Fatalf("published event not JSON: %v", err)
			}
			if got["answer"] != 42 {
				t.Fatalf("published payload = %v", got)
			}
			return
		}
	}
	t.Fatalf("no named event observed: %v", sc.Err())
}

func TestServerPublishNilSafe(t *testing.T) {
	var s *Server
	s.Publish("health", 1) // must not panic
	NewServer(nil, 0).Publish("health", func() {})
}
