package tsdb

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"press/internal/obs"
)

// feed applies one delta batch synchronously and flushes the raw tier,
// so tests control exactly what is on disk.
func feed(t *testing.T, s *Store, b Batch) {
	t.Helper()
	s.applyBatch(b)
	s.mu.Lock()
	if err := s.tiers[tierRaw].flush(); err != nil {
		s.mu.Unlock()
		t.Fatalf("flush: %v", err)
	}
	s.mu.Unlock()
}

// seedStore writes two sessions' worth of counter+gauge history:
// 120 seconds of 1s samples ending at endMs.
func seedStore(t *testing.T, s *Store, endMs int64) {
	t.Helper()
	start := endMs - 119_000
	for i := 0; i < 120; i++ {
		ts := start + int64(i)*1000
		feed(t, s, Batch{
			UnixMs:   ts,
			Counters: map[string]int64{"req_total": 2},
			Gauges:   map[string]float64{"depth_db": float64(30 + i%4)},
		})
		feed(t, s, Batch{
			UnixMs:   ts,
			Session:  "room1",
			Counters: map[string]int64{"req_total": 3},
		})
	}
}

func openTest(t *testing.T, dir string, ro bool) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, ReadOnly: ro, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

func TestStoreWriteQueryRestartDownsample(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, false)
	endMs := time.Now().Add(-5*time.Minute).UnixMilli() / 1000 * 1000
	seedStore(t, s, endMs)

	// Fold completed windows into the 10s and 1m tiers.
	s.mu.Lock()
	s.compactLocked(time.UnixMilli(endMs + 30_000))
	for i := 0; i < numTiers; i++ {
		s.tiers[i].flush()
	}
	s.mu.Unlock()
	if s.wm[tier10s] == 0 || s.wm[tier1m] == 0 {
		t.Fatalf("compaction watermarks not advanced: %v", s.wm)
	}

	end := time.UnixMilli(endMs)
	start := time.UnixMilli(endMs - 119_000)

	checkQueries := func(s *Store, phase string) {
		t.Helper()
		// Instant: cumulative counter totals per session.
		samples, err := s.Instant("req_total", end)
		if err != nil {
			t.Fatalf("%s instant: %v", phase, err)
		}
		if len(samples) != 2 {
			t.Fatalf("%s: want 2 sessions, got %+v", phase, samples)
		}
		bySess := map[string]float64{}
		for _, sm := range samples {
			bySess[sm.Labels.Session] = sm.V
		}
		if bySess[""] != 240 || bySess["room1"] != 360 {
			t.Fatalf("%s: wrong totals %v", phase, bySess)
		}
		// Session filtering.
		samples, err = s.Instant(`req_total{session="room1"}`, end)
		if err != nil || len(samples) != 1 || samples[0].V != 360 {
			t.Fatalf("%s session filter: %v %+v", phase, err, samples)
		}
		// rate over the full window: root 2/s, room1 3/s.
		samples, err = s.Instant("rate(req_total[2m])", end)
		if err != nil || len(samples) != 2 {
			t.Fatalf("%s rate: %v %+v", phase, err, samples)
		}
		for _, sm := range samples {
			want := 2.0
			if sm.Labels.Session == "room1" {
				want = 3.0
			}
			if sm.V < want*0.9 || sm.V > want*1.1 {
				t.Fatalf("%s rate session %q: got %v want ~%v", phase, sm.Labels.Session, sm.V, want)
			}
		}
		// Cross-session roll-up.
		samples, err = s.Instant("sum(rate(req_total[2m]))", end)
		if err != nil || len(samples) != 1 {
			t.Fatalf("%s sum(rate): %v %+v", phase, err, samples)
		}
		if samples[0].V < 4.5 || samples[0].V > 5.5 {
			t.Fatalf("%s sum(rate) = %v, want ~5", phase, samples[0].V)
		}
		// Range query: gauges step-sampled.
		series, err := s.Range("depth_db", start, end, 10*time.Second)
		if err != nil || len(series) != 1 {
			t.Fatalf("%s range: %v %+v", phase, err, series)
		}
		if len(series[0].Points) < 10 {
			t.Fatalf("%s range: too few points: %d", phase, len(series[0].Points))
		}
	}

	checkQueries(s, "live")
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart durability: a fresh read-only store answers identically.
	s2 := openTest(t, dir, true)
	checkQueries(s2, "reopened")

	// Downsampled tiers actually serve: delete every raw segment and
	// query again — the 10s/1m tiers must cover the range.
	segs, _ := filepath.Glob(filepath.Join(dir, "raw", "*"+tsdbLog.Suffix))
	if len(segs) == 0 {
		t.Fatal("no raw segments written")
	}
	for _, p := range segs {
		os.Remove(p)
	}
	s3 := openTest(t, dir, true)
	samples, err := s3.Instant(`req_total{session="room1"}`, end)
	if err != nil || len(samples) != 1 {
		t.Fatalf("coarse-tier instant: %v %+v", err, samples)
	}
	// The 10s tier's last window ends at or before endMs; cumulative
	// total there is within one window of the true total.
	if samples[0].V < 330 || samples[0].V > 360 {
		t.Fatalf("coarse-tier total = %v, want within [330,360]", samples[0].V)
	}
	series, err := s3.Range("rate(req_total[1m])", start, end, 30*time.Second)
	if err != nil || len(series) != 2 {
		t.Fatalf("coarse-tier range: %v (%d series)", err, len(series))
	}
}

func TestCounterCumRestoredAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	endMs := time.Now().UnixMilli() / 1000 * 1000
	s := openTest(t, dir, false)
	feed(t, s, Batch{UnixMs: endMs - 2000, Counters: map[string]int64{"c_total": 7}})
	s.Close()

	s2 := openTest(t, dir, false)
	feed(t, s2, Batch{UnixMs: endMs, Counters: map[string]int64{"c_total": 5}})
	samples, err := s2.Instant("c_total", time.UnixMilli(endMs))
	if err != nil || len(samples) != 1 {
		t.Fatalf("instant: %v %+v", err, samples)
	}
	if samples[0].V != 12 {
		t.Fatalf("cumulative not restored: got %v want 12", samples[0].V)
	}
	s2.Close()
}

func TestOfferOverflowDropsAndFoldsAreCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, QueueCap: 2, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Hold the store lock so the ingest loop wedges inside applyBatch;
	// the queue then fills deterministically.
	s.mu.Lock()
	accepted, rejected := 0, 0
	for i := 0; i < 10; i++ {
		b := Batch{UnixMs: time.Now().UnixMilli(), Counters: map[string]int64{"x_total": 1}}
		if s.Offer(b) {
			accepted++
		} else {
			rejected++
		}
	}
	s.mu.Unlock()
	if rejected == 0 {
		t.Fatal("bounded queue never rejected")
	}
	if got := s.dropped.Load(); got != int64(rejected) {
		t.Fatalf("dropped counter %d != rejections %d", got, rejected)
	}
	if accepted == 0 {
		t.Fatal("no batch accepted")
	}
}

func TestPerSessionSeriesBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxSeriesPerSession: 2, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.applyBatch(Batch{
		UnixMs:  time.Now().UnixMilli(),
		Session: "room1",
		Gauges:  map[string]float64{"a": 1, "b": 2, "c": 3},
	})
	st := s.State()
	if st.Series != 2 {
		t.Fatalf("series = %d, want 2 (budget)", st.Series)
	}
	if s.rejected.Load() == 0 {
		t.Fatal("over-budget series not counted as rejected")
	}

	// Releasing the session frees its budget and counts the release.
	if n := s.ReleaseSession("room1"); n != 2 {
		t.Fatalf("released %d series, want 2", n)
	}
	if s.released.Load() != 1 {
		t.Fatal("release not counted")
	}
	s.applyBatch(Batch{
		UnixMs:  time.Now().UnixMilli(),
		Session: "room1",
		Gauges:  map[string]float64{"d": 4},
	})
	if st := s.State(); st.Series != 1 {
		t.Fatalf("series after release = %d, want 1", st.Series)
	}
}

func TestRetentionDeletesExpiredSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{
		Dir: dir, Reg: obs.NewRegistry(),
		RetentionRaw: time.Minute, SegmentBytes: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Old samples (beyond raw retention), enough to rotate segments.
	old := time.Now().Add(-10 * time.Minute).UnixMilli()
	for i := 0; i < 100; i++ {
		g := map[string]float64{}
		for j := 0; j < 16; j++ {
			g["g"+string(rune('a'+j))] = float64(i * j)
		}
		feed(t, s, Batch{UnixMs: old + int64(i)*1000, Gauges: g})
	}
	s.mu.Lock()
	sealedBefore := len(s.tiers[tierRaw].sealed)
	s.retainLocked(time.Now())
	sealedAfter := len(s.tiers[tierRaw].sealed)
	s.mu.Unlock()
	if sealedBefore == 0 {
		t.Fatal("no segments rotated; retention untestable")
	}
	if sealedAfter >= sealedBefore {
		t.Fatalf("retention removed nothing: %d -> %d", sealedBefore, sealedAfter)
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if s.Offer(Batch{UnixMs: 1}) {
		t.Fatal("nil store accepted a batch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.ReleaseSession("x") != 0 {
		t.Fatal("nil store released series")
	}
	s.SetSessions(func(func(string, *obs.Registry)) {})
	s.CollectNow()
	s.EndSession("x", obs.NewRegistry())
	if st := s.State(); st.Enabled {
		t.Fatal("nil store reports enabled")
	}
	if s.HealthzLine() != "" {
		t.Fatal("nil store has a healthz line")
	}
	if _, err := s.Instant("x", time.Now()); err == nil {
		t.Fatal("nil store answered a query")
	}
}

func TestStoreStateAndExtent(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, false)
	defer s.Close()
	now := time.Now().UnixMilli()
	feed(t, s, Batch{UnixMs: now - 60_000, Gauges: map[string]float64{"g": 1}})
	feed(t, s, Batch{UnixMs: now, Gauges: map[string]float64{"g": 2}})
	st := s.State()
	if !st.Enabled || st.Samples != 2 || st.Series != 1 {
		t.Fatalf("state: %+v", st)
	}
	minMs, maxMs := s.Extent()
	if minMs != now-60_000 || maxMs != now {
		t.Fatalf("extent [%d,%d], want [%d,%d]", minMs, maxMs, now-60_000, now)
	}
	if s.HealthzLine() == "" {
		t.Fatal("no healthz line")
	}
}
