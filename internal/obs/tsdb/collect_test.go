package tsdb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"press/internal/obs"
)

// instantValue reads one series' latest value from a fresh read-only
// view of dir.
func instantValue(t *testing.T, dir, expr string) float64 {
	t.Helper()
	ro, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ro.Instant(expr, time.Now())
	if err != nil || len(samples) != 1 {
		t.Fatalf("%s: %v %+v", expr, err, samples)
	}
	return samples[0].V
}

// TestCollectorReconcilesAcrossDrops: with a two-batch queue and the
// ingest loop wedged, most collections are dropped; their deltas fold
// into later batches, so after Close the stored per-session and root
// totals equal the registries' final snapshots.
func TestCollectorReconcilesAcrossDrops(t *testing.T) {
	dir := t.TempDir()
	root := obs.NewRegistry()
	rooms := map[string]*obs.Registry{
		"room1": obs.NewRegistryWithParent(root),
		"room2": obs.NewRegistryWithParent(root),
	}
	s, err := Open(Options{
		Dir: dir, Reg: root, QueueCap: 2,
		CollectInterval: time.Hour, Session: "run",
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSessions(func(emit func(id string, reg *obs.Registry)) {
		for id, reg := range rooms {
			emit(id, reg)
		}
	})

	// Hold the store lock so the ingest loop wedges inside applyBatch
	// and the queue fills.
	s.mu.Lock()
	for i := 0; i < 10; i++ {
		rooms["room1"].Counter("work_total").Add(2)
		rooms["room2"].Counter("work_total").Add(3)
		root.Counter("root_only_total").Inc()
		s.CollectNow()
	}
	s.mu.Unlock()
	if s.dropped.Load() == 0 {
		t.Fatal("no collection was dropped; the fold path went untested")
	}
	rooms["room1"].Counter("work_total").Add(1) // the tail, collected by Close
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for id, reg := range rooms {
		want := float64(reg.Snapshot().Counters["work_total"])
		if got := instantValue(t, dir, `work_total{session="`+id+`"}`); got != want {
			t.Errorf("%s work_total = %v, want %v", id, got, want)
		}
	}
	snap := root.Snapshot().Counters
	for _, name := range []string{"work_total", "root_only_total"} {
		if got := instantValue(t, dir, name+`{session="run"}`); got != float64(snap[name]) {
			t.Errorf("root %s = %v, want %v", name, got, snap[name])
		}
	}
}

// TestCollectorDeltasReconcileWithRegistry: counter and histogram
// deltas from successive collections sum, in the store, to the
// registry's totals under the run's session label.
func TestCollectorDeltasReconcileWithRegistry(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(Options{Dir: dir, Reg: reg, CollectInterval: time.Hour, Session: "run-1"})
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Counter("work_total")
	h := reg.Histogram("latency_seconds", []float64{0.1, 1})
	for i := 0; i < 7; i++ {
		c.Inc()
		h.Observe(0.25)
	}
	s.CollectNow()
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	s.CollectNow()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for expr, want := range map[string]float64{
		`work_total{session="run-1"}`:            12,
		`latency_seconds_count{session="run-1"}`: 7,
		`latency_seconds_sum{session="run-1"}`:   1.75,
	} {
		if got := instantValue(t, dir, expr); got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

// waitQueueEmpty waits until the ingest loop has taken every queued
// batch. It reads the queue without the store lock, so it works while
// the test holds that lock.
func waitQueueEmpty(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.q) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ingest loop left %d batches queued", len(s.q))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCollectorRejectionFoldsDeltas: a collection rejected on a full
// queue leaves its source's baseline where it was, so the next accepted
// batch carries the rejected deltas as well.
func TestCollectorRejectionFoldsDeltas(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(Options{Dir: dir, Reg: reg, QueueCap: 2, CollectInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Let the ingest loop go idle: once a marker batch, queued behind
	// the start-up collection, shows up under the store lock, nothing
	// is left to ingest. Then, still holding the lock, wedge the loop
	// on a batch it has taken and fill the queue with empty batches.
	s.Offer(Batch{UnixMs: time.Now().UnixMilli(), Gauges: map[string]float64{"marker": 1}})
	for deadline := time.Now().Add(2 * time.Second); ; {
		s.mu.Lock()
		if s.series[seriesKey{"", "marker"}] != nil {
			break
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("ingest loop never applied the marker batch")
		}
		time.Sleep(time.Millisecond)
	}
	s.Offer(Batch{UnixMs: time.Now().UnixMilli()})
	waitQueueEmpty(t, s)
	for s.Offer(Batch{UnixMs: time.Now().UnixMilli()}) {
	}
	dropped := s.dropped.Load()
	reg.Counter("fold_total").Add(3)
	s.CollectNow() // rejected
	if s.dropped.Load() != dropped+1 {
		t.Fatalf("dropped = %d, want %d: the collection was not rejected", s.dropped.Load(), dropped+1)
	}
	s.mu.Unlock()
	waitQueueEmpty(t, s)
	reg.Counter("fold_total").Add(4)
	s.CollectNow() // accepted: must carry all 7
	if s.dropped.Load() != dropped+1 {
		t.Fatalf("dropped = %d, want %d: the folding collection was rejected too", s.dropped.Load(), dropped+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := instantValue(t, dir, "fold_total"); got != 7 {
		t.Fatalf("fold_total = %v, want 7", got)
	}
}

// TestCollectorSessionSources: per-session registries are stored under
// their session labels, the tail made after the last collection is
// delivered by Close, and a child registry rolls up into the root's
// series too.
func TestCollectorSessionSources(t *testing.T) {
	dir := t.TempDir()
	root := obs.NewRegistry()
	room := obs.NewRegistryWithParent(root)
	s, err := Open(Options{Dir: dir, Reg: root, CollectInterval: time.Hour, Session: "run"})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSessions(func(emit func(id string, reg *obs.Registry)) { emit("room1", room) })
	room.Counter("room_work_total").Add(4)
	s.CollectNow()
	room.Counter("room_work_total").Add(2) // not collected again: Close delivers the tail
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := instantValue(t, dir, `room_work_total{session="room1"}`); got != 6 {
		t.Errorf("room1 total = %v, want 6 (tail lost?)", got)
	}
	if got := instantValue(t, dir, `room_work_total{session="run"}`); got != 6 {
		t.Errorf("root roll-up total = %v, want 6", got)
	}
}

// TestCollectorConcurrentProducers hammers the registry from many
// goroutines while the store collects on a tight interval — the -race
// proof that collection never synchronizes with producers — and the
// stored totals still come out exact.
func TestCollectorConcurrentProducers(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(Options{Dir: dir, Reg: reg, CollectInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < producers; p++ {
		name := fmt.Sprintf("producer_%d_total", p)
		if got := instantValue(t, dir, name); got != perProducer {
			t.Errorf("%s = %v, want %d", name, got, perProducer)
		}
	}
}

// TestEndSessionAppliesTailBeforeRelease: a departing session's tail
// and its release travel through the queue together, so the stored
// total includes the tail and the series budget is freed afterwards.
func TestEndSessionAppliesTailBeforeRelease(t *testing.T) {
	dir := t.TempDir()
	root := obs.NewRegistry()
	room := obs.NewRegistryWithParent(root)
	s, err := Open(Options{Dir: dir, Reg: root, CollectInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSessions(func(emit func(id string, reg *obs.Registry)) { emit("room1", room) })
	room.Counter("work_total").Add(3)
	s.CollectNow()

	s.mu.Lock() // wedge ingest: the tail and the release must queue
	room.Counter("work_total").Add(4)
	s.SetSessions(nil)
	s.EndSession("room1", room)
	s.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for s.released.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.released.Load() != 1 || s.State().Sessions != 1 {
		t.Fatalf("released %d sessions, %d still live; want room1 released, root live",
			s.released.Load(), s.State().Sessions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := instantValue(t, dir, `work_total{session="room1"}`); got != 7 {
		t.Fatalf("room1 work_total = %v, want 7 (tail applied after the release?)", got)
	}
}

// TestGaugesCollectLatestOnChange: gauges are latest-value samples,
// collected on first contact and then only when they change.
func TestGaugesCollectLatestOnChange(t *testing.T) {
	reg := obs.NewRegistry()
	base := newBaseline()
	reg.Gauge("depth_db").Set(30)
	reg.Gauge("steady").Set(1)
	snap := reg.Snapshot()
	b := diffSnapshot(base, snap, "", time.Now())
	if b.Gauges["depth_db"] != 30 || b.Gauges["steady"] != 1 {
		t.Fatalf("first contact gauges = %v", b.Gauges)
	}
	advanceBaseline(base, snap)
	reg.Gauge("depth_db").Set(27)
	b = diffSnapshot(base, reg.Snapshot(), "", time.Now())
	if len(b.Gauges) != 1 || b.Gauges["depth_db"] != 27 {
		t.Fatalf("changed gauges = %v, want only depth_db=27", b.Gauges)
	}
}

// TestReadOnlyStoreStartsNoCollector: a query-only store never
// collects, even when handed a registry and a cadence.
func TestReadOnlyStoreStartsNoCollector(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Counter("ro_total").Add(5)
	ro, err := Open(Options{Dir: dir, ReadOnly: true, Reg: reg, CollectInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "tsdb.(*Store).collectLoop") {
		t.Error("read-only store runs a collector")
	}
	ro.CollectNow()
	if st := ro.State(); st.Batches != 0 || st.QueueLen != 0 {
		t.Errorf("read-only store ingested: %+v", st)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
}
