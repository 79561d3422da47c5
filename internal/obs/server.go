package obs

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server exposes a live telemetry endpoint over HTTP (stdlib only):
//
//	GET /metrics       Prometheus text exposition of the registry
//	GET /metrics.json  JSON snapshot (same shape as -telemetry)
//	GET /healthz       liveness probe ("ok" plus build provenance)
//	GET /buildz        build info JSON (Go version, VCS revision)
//	GET /events        Server-Sent Events stream of recorder samples
//	                   plus any named events sent through Publish
//	GET /debug/pprof/  the standard pprof handlers
//
// Where -telemetry writes one snapshot at exit, the server makes a
// long-running sweep or controller session observable while it runs:
// point Prometheus (or curl) at /metrics, or follow /events for the
// sampled time series the Recorder maintains.
//
// Subsystems can extend the server: HandleFunc registers extra routes
// (the channel-health layer adds /alerts, /health.json, /dashboard) and
// Publish fans a named SSE event out to every /events subscriber.
type Server struct {
	reg *Registry
	rec *Recorder

	// muxMu guards mux and patterns: routes are registered by higher
	// layers (health, flight, prof, scope) *after* Start has the server
	// serving, so registration and dispatch must synchronize explicitly
	// rather than relying on ServeMux internals.
	muxMu    sync.RWMutex
	mux      *http.ServeMux
	patterns map[string]struct{}

	srv *http.Server
	ln  net.Listener

	pubMu sync.Mutex
	pubs  map[int]chan sseEvent
	pubID int

	// sessions, when set, resolves a session ID to its scope's recorder —
	// the hook behind session-filtered /events streams (the scope layer
	// installs it without obs depending on scope).
	sessions atomic.Pointer[SessionResolver]

	// healthMu guards healthFns: status lines higher layers append to
	// the /healthz body (the tsdb store reports its series, disk use,
	// queue and drops there) without obs depending on them.
	healthMu  sync.Mutex
	healthFns []func() string
}

// SessionResolver maps a session ID to that session's sample recorder
// (nil when the session does not exist).
type SessionResolver func(id string) *Recorder

// sseEvent is one published named event, pre-marshalled. session is ""
// for process-wide events, else the scope the event belongs to.
type sseEvent struct {
	name    string
	session string
	data    []byte
}

// NewServer builds a server over reg. rec may be nil, in which case
// /events reports 404 (no sampler running).
func NewServer(reg *Registry, rec *Recorder) *Server {
	s := &Server{reg: reg, rec: rec, pubs: map[int]chan sseEvent{}}
	s.mux = http.NewServeMux()
	s.patterns = map[string]struct{}{}
	s.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_ = s.reg.WriteText(w)
	})
	s.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		ServeJSON(w, r, s.reg.WriteJSON)
	})
	s.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		b := ReadBuild()
		fmt.Fprintf(w, "ok\ngo %s\nrev %s\n", b.GoVersion, b.ShortRevision())
		s.healthMu.Lock()
		fns := append([]func() string(nil), s.healthFns...)
		s.healthMu.Unlock()
		for _, fn := range fns {
			if line := fn(); line != "" {
				fmt.Fprintln(w, line)
			}
		}
	})
	s.HandleFunc("/buildz", func(w http.ResponseWriter, r *http.Request) {
		ServeJSON(w, r, func(out io.Writer) error {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(ReadBuild())
		})
	})
	s.HandleFunc("/events", s.serveEvents)
	s.HandleFunc("/debug/pprof/", pprof.Index)
	s.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	return s
}

// serveHTTP dispatches under the registration read-lock, so a route
// being added by one goroutine can never race a request being routed by
// another.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	s.muxMu.RLock()
	mux := s.mux
	s.muxMu.RUnlock()
	mux.ServeHTTP(w, r)
}

// Handler returns the server's route table, usable standalone (tests,
// embedding into an existing mux).
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

// HandleFunc registers an additional route on the server — the hook
// higher layers (internal/obs/health, internal/obs/scope) use to expose
// their endpoints on the same listener without obs depending on them.
// Registration is safe concurrently with serving (the health/flight/
// prof layers register their routes after Start has the listener open).
// A duplicate pattern panics, matching http.ServeMux; use TryHandle to
// get an error instead.
func (s *Server) HandleFunc(pattern string, handler http.HandlerFunc) {
	if err := s.TryHandle(pattern, handler); err != nil {
		panic(err)
	}
}

// TryHandle registers an additional route like HandleFunc, but reports
// a duplicate pattern as an error instead of panicking.
func (s *Server) TryHandle(pattern string, handler http.HandlerFunc) error {
	s.muxMu.Lock()
	defer s.muxMu.Unlock()
	if _, dup := s.patterns[pattern]; dup {
		return fmt.Errorf("obs: duplicate route pattern %q", pattern)
	}
	s.patterns[pattern] = struct{}{}
	s.mux.HandleFunc(pattern, handler)
	return nil
}

// Patterns returns every registered route pattern, sorted — the route
// inventory hygiene tests sweep so a newly added endpoint cannot dodge
// the response-header conventions by being forgotten in a hand-kept
// list. Safe concurrently with registration; nil on a nil server.
func (s *Server) Patterns() []string {
	if s == nil {
		return nil
	}
	s.muxMu.RLock()
	defer s.muxMu.RUnlock()
	out := make([]string, 0, len(s.patterns))
	for p := range s.patterns {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AddHealthz appends a status-line producer to the /healthz body: each
// probe calls fn and writes its (non-empty) return value as one line
// after the build provenance. The hook higher layers (internal/obs/
// tsdb) use to surface liveness-adjacent state — series, disk use,
// queue depth, drop counters — on the endpoint ops already poll.
// Safe for concurrent use; a nil server ignores the call.
func (s *Server) AddHealthz(fn func() string) {
	if s == nil || fn == nil {
		return
	}
	s.healthMu.Lock()
	s.healthFns = append(s.healthFns, fn)
	s.healthMu.Unlock()
}

// SetSessionResolver installs the session-ID → recorder lookup behind
// /events?session= (nil uninstalls it). Safe for concurrent use.
func (s *Server) SetSessionResolver(f SessionResolver) {
	if f == nil {
		s.sessions.Store(nil)
		return
	}
	s.sessions.Store(&f)
}

// Publish marshals v and fans it out to every /events subscriber as a
// named SSE event ("event: <name>"). Slow subscribers drop the event
// rather than blocking the publisher. Safe for concurrent use; a nil
// server discards the event.
func (s *Server) Publish(name string, v any) { s.PublishSession("", name, v) }

// PublishSession is Publish with a session tag: an unfiltered /events
// stream sees every event, while /events?session=ID streams only that
// session's events (plus its recorder samples). An empty session means
// process-wide. A nil server discards the event.
func (s *Server) PublishSession(session, name string, v any) {
	if s == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	ev := sseEvent{name: name, session: session, data: data}
	s.pubMu.Lock()
	for _, ch := range s.pubs {
		select {
		case ch <- ev:
		default: // subscriber lagging: drop, never block the publisher
		}
	}
	s.pubMu.Unlock()
}

// subscribePub registers a listener for published events; the cancel
// func unregisters it and closes the channel.
func (s *Server) subscribePub(buf int) (<-chan sseEvent, func()) {
	ch := make(chan sseEvent, buf)
	s.pubMu.Lock()
	id := s.pubID
	s.pubID++
	s.pubs[id] = ch
	s.pubMu.Unlock()
	return ch, func() {
		s.pubMu.Lock()
		if _, ok := s.pubs[id]; ok {
			delete(s.pubs, id)
			close(ch)
		}
		s.pubMu.Unlock()
	}
}

// serveEvents streams recorder samples as Server-Sent Events: the most
// recent buffered sample first (so a subscriber immediately sees state),
// then every new sample until the client disconnects. Named events sent
// through Publish are interleaved with their "event:" field set. With
// ?session=ID the stream narrows to that session's scope: its own
// recorder's samples and only the events published under that session.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.rec
	session := r.URL.Query().Get("session")
	if session != "" {
		resolve := s.sessions.Load()
		if resolve == nil {
			http.Error(w, "session-scoped telemetry not enabled", http.StatusNotFound)
			return
		}
		if rec = (*resolve)(session); rec == nil {
			http.Error(w, "unknown session "+session, http.StatusNotFound)
			return
		}
	}
	if rec == nil {
		http.Error(w, "no recorder: start the binary with -telemetry-addr", http.StatusNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	write := func(event string, data []byte) bool {
		if event != "" {
			if _, err := fmt.Fprintf(w, "event: %s\n", event); err != nil {
				return false
			}
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	writeSample := func(sample Sample) bool {
		buf, err := json.Marshal(sample)
		if err != nil {
			return false
		}
		return write("", buf)
	}

	ch, cancel := rec.Subscribe(16)
	defer cancel()
	pub, cancelPub := s.subscribePub(16)
	defer cancelPub()
	if backlog := rec.Samples(); len(backlog) > 0 {
		if !writeSample(backlog[len(backlog)-1]) {
			return
		}
	}
	for {
		select {
		case sample, ok := <-ch:
			if !ok {
				return
			}
			if !writeSample(sample) {
				return
			}
		case ev, ok := <-pub:
			if !ok {
				return
			}
			if session != "" && ev.session != session {
				continue // another scope's event: not for this stream
			}
			if !write(ev.name, ev.data) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// ServeJSON writes one JSON document produced by write with the headers
// a polling client needs — explicit Content-Type and Cache-Control:
// no-store (these are live readings; caching one defeats the point) —
// and gzip-compresses the body when the client advertises support.
func ServeJSON(w http.ResponseWriter, r *http.Request, write func(io.Writer) error) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		_ = write(gz)
		_ = gz.Close()
		return
	}
	_ = write(w)
}

// acceptsGzip reports whether the request advertises gzip support: a
// token-level parse of Accept-Encoding that walks each coding's
// parameter list and honours a numeric q-value ("gzip;q=0" and
// "gzip;Q=0.000" decline, "gzip;q=0.5" accepts). A malformed q falls
// back to the header's default of acceptance, matching the previous
// lenient behaviour.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		params := strings.Split(part, ";")
		if !strings.EqualFold(strings.TrimSpace(params[0]), "gzip") {
			continue
		}
		for _, p := range params[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
				continue
			}
			if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				return q > 0
			}
			return true
		}
		return true
	}
	return false
}

// Start listens on addr (e.g. "127.0.0.1:9090", ":0") and serves in a
// background goroutine until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (nil before Start) — how tests
// and log lines discover the port behind ":0".
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close shuts the server down, waiting briefly for in-flight requests;
// open /events streams are cut by closing the underlying connections.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
