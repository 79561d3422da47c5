package export

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"press/internal/obs"
)

// memSink captures payloads in memory. fail makes every Send error;
// block makes Send wait until release is closed (a hung collector).
type memSink struct {
	mu       sync.Mutex
	payloads [][]byte
	fail     bool
	failN    int // fail this many sends, then succeed
	block    chan struct{}
	sends    int
}

func (s *memSink) Send(ctx context.Context, payload []byte) error {
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sends++
	if s.fail {
		return errors.New("sink down")
	}
	if s.failN > 0 {
		s.failN--
		return errors.New("sink flaky")
	}
	cp := append([]byte(nil), payload...)
	s.payloads = append(s.payloads, cp)
	return nil
}

func (s *memSink) String() string { return "mem://" }
func (s *memSink) Close() error   { return nil }

func (s *memSink) batches(t *testing.T) []Batch {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var all []Batch
	for _, p := range s.payloads {
		bs, err := DecodeBatches(p)
		if err != nil {
			t.Fatalf("decoding captured payload: %v", err)
		}
		all = append(all, bs...)
	}
	return all
}

// totals sums counter deltas per session across all captured batches.
func totals(batches []Batch) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, b := range batches {
		m := out[b.Session]
		if m == nil {
			m = map[string]int64{}
			out[b.Session] = m
		}
		for name, d := range b.Counters {
			m[name] += d
		}
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeltasReconcileWithRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{Interval: time.Hour, Session: "run-1"})
	e.Start()

	c := reg.Counter("work_total")
	h := reg.Histogram("latency_seconds", []float64{0.1, 1})
	for i := 0; i < 7; i++ {
		c.Inc()
		h.Observe(0.05)
	}
	e.CollectNow()
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	e.CollectNow()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	batches := sink.batches(t)
	if len(batches) == 0 {
		t.Fatal("no batches delivered")
	}
	for _, b := range batches {
		if b.Schema != BatchSchema {
			t.Fatalf("batch schema %d", b.Schema)
		}
		if b.Session != "run-1" {
			t.Fatalf("batch session %q, want run-1", b.Session)
		}
	}
	got := totals(batches)["run-1"]
	if got["work_total"] != 12 {
		t.Errorf("summed work_total deltas = %d, want 12 (registry %d)",
			got["work_total"], c.Value())
	}
	var hc int64
	for _, b := range batches {
		hc += b.Histograms["latency_seconds"].Count
	}
	if hc != 7 {
		t.Errorf("summed histogram count deltas = %d, want 7", hc)
	}
}

func TestHeartbeatAndQuietSessions(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{Interval: time.Hour})
	sessReg := obs.NewRegistryWithParent(reg)
	e.SetSessions(func(emit func(string, *obs.Registry)) { emit("room-1", sessReg) })
	e.Start()

	sessReg.Counter("x_total").Inc()
	e.CollectNow() // room-1's delta
	e.CollectNow() // nothing changed in room-1: root heartbeat only
	e.CollectNow()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	perSession := map[string]int{}
	for _, b := range sink.batches(t) {
		perSession[b.Session]++
	}
	// Root emits every collection: one at Start, three explicit, one
	// from Stop's final collect — heartbeats even when empty. The quiet
	// session emits only its first-contact announcement (at Start) and
	// its one change.
	if perSession[""] != 5 {
		t.Errorf("root emitted %d batches, want 5 heartbeats", perSession[""])
	}
	if perSession["room-1"] != 2 {
		t.Errorf("quiet session emitted %d batches, want 2 (announce + change)", perSession["room-1"])
	}
}

func TestQueueOverflowDropsFoldIntoNextBatch(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	sink := &memSink{block: release}
	e := New(reg, sink, Options{Interval: time.Hour, QueueCap: 2, FlushTimeout: 5 * time.Second})
	e.Start()

	c := reg.Counter("work_total")
	// Overfill: the shipper is stuck in Send, so at most one batch is in
	// flight and two fit the queue; the rest must drop without blocking.
	var dropsBefore int64
	for i := 0; i < 10; i++ {
		c.Inc()
		start := time.Now()
		e.CollectNow()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("CollectNow blocked %v with a hung sink", d)
		}
	}
	dropsBefore = e.dropped.Load()
	if dropsBefore == 0 {
		t.Fatal("expected drops with queue cap 2 and a hung sink")
	}
	if reg.Counter(CounterDropped).Value() != dropsBefore {
		t.Errorf("self-metric %s = %d, want %d",
			CounterDropped, reg.Counter(CounterDropped).Value(), dropsBefore)
	}

	close(release) // collector back: everything still queued flows out
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	got := totals(sink.batches(t))[""]
	if got["work_total"] != 10 {
		t.Errorf("summed work_total = %d, want 10: dropped batches must fold into later deltas",
			got["work_total"])
	}
}

func TestRetryBackoffRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{failN: 3}
	e := New(reg, sink, Options{
		Interval: time.Hour, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	})
	e.Start()
	reg.Counter("work_total").Inc()
	e.CollectNow()
	waitFor(t, "send to recover", func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return len(sink.payloads) > 0
	})
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	st := e.State() // Stop leaves counters readable
	if st.Retries < 3 {
		t.Errorf("retries = %d, want >= 3", st.Retries)
	}
	if st.SendFailures < 3 {
		t.Errorf("send failures = %d, want >= 3", st.SendFailures)
	}
	if got := totals(sink.batches(t))[""]["work_total"]; got != 1 {
		t.Errorf("work_total = %d after recovery, want 1", got)
	}
	if reg.Counter(CounterRetries).Value() < 3 {
		t.Errorf("self-metric %s = %d, want >= 3",
			CounterRetries, reg.Counter(CounterRetries).Value())
	}
}

func TestDeadSinkNeverBlocksAndStopIsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{fail: true}
	e := New(reg, sink, Options{
		Interval: time.Millisecond, RetryBase: time.Millisecond,
		RetryMax: 2 * time.Millisecond, FlushTimeout: 50 * time.Millisecond,
	})
	e.Start()
	c := reg.Counter("work_total")
	for i := 0; i < 100; i++ {
		c.Inc() // the control-loop side: pure atomics, never blocked
	}
	waitFor(t, "failed sends to accumulate", func() bool { return e.State().SendFailures > 0 })
	start := time.Now()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Stop took %v against a dead sink; flush must be bounded", d)
	}
	st := e.State()
	if st.Sent != 0 {
		t.Errorf("sent = %d batches to a dead sink", st.Sent)
	}
	if st.Dropped == 0 && st.Unflushed == 0 {
		t.Error("dead sink: expected the final flush to count unflushed batches")
	}
}

func TestMidBatchSinkCrash(t *testing.T) {
	// The sink dies after accepting some payloads; already-accepted data
	// stays accepted, the rest retries and is eventually flushed when it
	// recovers — no duplicated counter deltas.
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{Interval: time.Hour, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
	e.Start()
	c := reg.Counter("work_total")

	c.Add(3)
	e.CollectNow()
	waitFor(t, "first delivery", func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return len(sink.payloads) > 0
	})
	sink.mu.Lock()
	sink.failN = 2 // crash window
	sink.mu.Unlock()
	c.Add(4)
	e.CollectNow()
	// Let the retries ride out the crash window before shutting down, so
	// the recovery is exercised by the retry loop, not the final flush:
	// wait for the +4 delta itself, since the start-up heartbeat is a
	// payload too.
	waitFor(t, "recovery after crash window", func() bool {
		return totals(sink.batches(t))[""]["work_total"] == 7
	})
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := totals(sink.batches(t))[""]["work_total"]; got != 7 {
		t.Errorf("work_total = %d across crash, want 7", got)
	}
}

func TestStopRetriesBatchInBackoff(t *testing.T) {
	// Stop arrives while a batch is in retry backoff against a sink that
	// recovers two failures later: the shutdown flush keeps retrying
	// within FlushTimeout and delivers it, rather than dropping it after
	// one more failed attempt.
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{
		Interval: time.Hour, RetryBase: 20 * time.Millisecond,
		RetryMax: 20 * time.Millisecond, FlushTimeout: 5 * time.Second,
	})
	e.Start()
	waitFor(t, "start-up heartbeat", func() bool { return e.State().Sent > 0 })
	sink.mu.Lock()
	sink.failN = 3
	sink.mu.Unlock()
	reg.Counter("work_total").Add(5)
	e.CollectNow()
	waitFor(t, "a failed send", func() bool { return e.State().SendFailures > 0 })
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := totals(sink.batches(t))[""]["work_total"]; got != 5 {
		t.Errorf("work_total = %d, want 5; state %+v", got, e.State())
	}
	if st := e.State(); st.Unflushed != 0 || st.Dropped != 0 {
		t.Errorf("unflushed %d, dropped %d batches, want none", st.Unflushed, st.Dropped)
	}
}

func TestSessionLabelsAndPruning(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{Interval: time.Hour})
	e.SetRootSession("proc")
	a := obs.NewRegistryWithParent(reg)
	b := obs.NewRegistryWithParent(reg)
	live := map[string]*obs.Registry{"room-a": a, "room-b": b}
	var mu sync.Mutex
	e.SetSessions(func(emit func(string, *obs.Registry)) {
		mu.Lock()
		defer mu.Unlock()
		for id, r := range live {
			emit(id, r)
		}
	})
	e.Start()
	a.Counter("evals_total").Add(2)
	b.Counter("evals_total").Add(5)
	e.CollectNow()
	mu.Lock()
	delete(live, "room-b") // session closed
	mu.Unlock()
	a.Counter("evals_total").Add(1)
	e.CollectNow()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	tot := totals(sink.batches(t))
	if tot["room-a"]["evals_total"] != 3 {
		t.Errorf("room-a evals_total = %d, want 3", tot["room-a"]["evals_total"])
	}
	if tot["room-b"]["evals_total"] != 5 {
		t.Errorf("room-b evals_total = %d, want 5", tot["room-b"]["evals_total"])
	}
	// Roll-up: the parent carries both rooms' writes under the root label.
	if tot["proc"]["evals_total"] != 8 {
		t.Errorf("root evals_total = %d, want 8 (roll-up)", tot["proc"]["evals_total"])
	}
	if n := e.State().SessionsExported; n != 0 {
		// Baselines of vanished sessions are pruned at the next collect;
		// after Stop's final collect only live ones remain.
		t.Logf("sessions still tracked after stop: %d", n)
	}
}

func TestGaugesShipLatestOnChange(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{Interval: time.Hour})
	e.Start()
	g := reg.Gauge("temp_c")
	g.Set(20)
	e.CollectNow()
	g.Set(21)
	e.CollectNow()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	var last float64
	var sightings int
	for _, b := range sink.batches(t) {
		if v, ok := b.Gauges["temp_c"]; ok {
			last = v
			sightings++
		}
	}
	if last != 21 {
		t.Errorf("final temp_c = %v, want 21", last)
	}
	if sightings < 2 {
		t.Errorf("temp_c shipped %d times, want 2 (once per change)", sightings)
	}
}

func TestNilExporterIsInert(t *testing.T) {
	var e *Exporter
	e.Start()
	e.CollectNow()
	e.SetSessions(nil)
	e.SetRootSession("x")
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if st := e.State(); st.Enabled {
		t.Error("nil exporter reports enabled")
	}
	if line := e.HealthzLine(); line != "" {
		t.Errorf("nil exporter healthz line %q", line)
	}
}

func TestStopWithoutStartClosesSink(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{})
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(sink.batches(t)) != 0 {
		t.Error("never-started exporter shipped batches")
	}
}

func TestFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.ndjson")
	reg := obs.NewRegistry()
	sink, err := NewSink(path, FormatNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	e := New(reg, sink, Options{Interval: time.Hour, Session: "file-run"})
	e.Start()
	reg.Counter("work_total").Add(9)
	e.CollectNow()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := DecodeBatches(data)
	if err != nil {
		t.Fatalf("decoding file sink output: %v", err)
	}
	if got := totals(batches)["file-run"]["work_total"]; got != 9 {
		t.Errorf("file sink work_total = %d, want 9", got)
	}
}

func TestNewSinkDispatch(t *testing.T) {
	if _, err := NewSink("", ""); err == nil {
		t.Error("empty URL accepted")
	}
	s, err := NewSink("http://127.0.0.1:1/x", FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*HTTPSink); !ok {
		t.Errorf("http URL built %T", s)
	}
	s.Close()
	path := filepath.Join(t.TempDir(), "f")
	s2, err := NewSink("file://"+path, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.(*FileSink); !ok {
		t.Errorf("file URL built %T", s2)
	}
	s2.Close()
}

func TestConnectionRefusedRetriesThenStops(t *testing.T) {
	// A real HTTP sink against a port nothing listens on: the canonical
	// down-collector. The exporter must keep retrying without blocking
	// and stop within the flush bound.
	reg := obs.NewRegistry()
	sink := NewHTTPSink("http://127.0.0.1:1/ingest", FormatNDJSON)
	e := New(reg, sink, Options{
		Interval: time.Millisecond, RetryBase: time.Millisecond,
		RetryMax: 5 * time.Millisecond, FlushTimeout: 100 * time.Millisecond,
	})
	e.Start()
	reg.Counter("work_total").Inc()
	waitFor(t, "refused sends to count", func() bool { return e.State().SendFailures > 0 })
	start := time.Now()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Stop took %v against a refused connection", d)
	}
	st := e.State()
	if st.LastError == "" || !strings.Contains(st.LastError, "127.0.0.1:1") {
		t.Errorf("last error %q does not name the sink", st.LastError)
	}
}

func TestStateAndHealthzLine(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{Interval: time.Hour, Session: "s"})
	e.Start()
	reg.Counter("x").Inc()
	e.CollectNow()
	waitFor(t, "delivery", func() bool { return e.State().Sent > 0 })
	st := e.State()
	if !st.Enabled || st.Sink != "mem://" || st.Session != "s" {
		t.Errorf("state = %+v", st)
	}
	if st.LastSuccessUnix == 0 {
		t.Error("no last-success stamp after a delivered batch")
	}
	line := e.HealthzLine()
	for _, want := range []string{"export:", "queue", "sent", "dropped", "last success"} {
		if !strings.Contains(line, want) {
			t.Errorf("healthz line %q missing %q", line, want)
		}
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeFormats(t *testing.T) {
	in := []Batch{
		{Schema: 1, Seq: 1, Session: "a", UnixMs: 5,
			Counters: map[string]int64{"c": 2},
			Gauges:   map[string]float64{"g": 1.5},
			Histograms: map[string]HistDelta{
				"h": {Count: 3, Sum: 0.25},
			},
			Spans: map[string]SpanDelta{"s": {Count: 1, TotalSeconds: 0.1}}},
		{Schema: 1, Seq: 2, UnixMs: 6},
	}
	for _, format := range []string{FormatNDJSON, FormatJSON, ""} {
		data, err := EncodeBatches(format, in)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		out, err := DecodeBatches(data)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(out) != len(in) {
			t.Fatalf("%s: %d batches out, want %d", format, len(out), len(in))
		}
		if out[0].Counters["c"] != 2 || out[0].Session != "a" || out[1].Seq != 2 {
			t.Errorf("%s: round trip mangled batches: %+v", format, out)
		}
	}
}

func TestDecodeBatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad ndjson", "{nope}\n"},
		{"bad array", "[{]"},
		{"trailing garbage", `[{"schema":1}] extra`},
		{"wrong schema", `{"schema":99}`},
		{"wrong schema in array", `[{"schema":1},{"schema":2}]`},
	}
	for _, tc := range cases {
		if _, err := DecodeBatches([]byte(tc.in)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	for _, ok := range []string{"", "   \n\n", `{"schema":1}` + "\n\n" + `{"schema":1}`} {
		if _, err := DecodeBatches([]byte(ok)); err != nil {
			t.Errorf("%q: unexpected error %v", ok, err)
		}
	}
}

func TestValidFormat(t *testing.T) {
	for _, ok := range []string{"", FormatNDJSON, FormatJSON} {
		if !ValidFormat(ok) {
			t.Errorf("ValidFormat(%q) = false", ok)
		}
	}
	if ValidFormat("xml") {
		t.Error("ValidFormat(xml) = true")
	}
}

func TestConcurrentProducersUnderExport(t *testing.T) {
	// Hammer the registry from many goroutines while the exporter
	// collects on a tight interval — the -race proof that export never
	// synchronizes with producers.
	reg := obs.NewRegistry()
	sink := &memSink{}
	e := New(reg, sink, Options{Interval: time.Millisecond})
	e.Start()
	var wg sync.WaitGroup
	const producers, perProducer = 8, 500
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf("producer_%d_total", p))
			for i := 0; i < perProducer; i++ {
				c.Inc()
			}
		}(p)
	}
	wg.Wait()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	tot := totals(sink.batches(t))[""]
	for p := 0; p < producers; p++ {
		name := fmt.Sprintf("producer_%d_total", p)
		if tot[name] != perProducer {
			t.Errorf("%s = %d, want %d", name, tot[name], perProducer)
		}
	}
}
