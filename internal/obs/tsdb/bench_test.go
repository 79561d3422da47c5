package tsdb

import (
	"testing"
	"time"

	"press/internal/obs"
)

// BenchmarkNilStoreOffer is the disabled convention: every store hook
// on a nil *Store must cost a pointer check and nothing else (0
// allocs/op, gate-enforced) — the proof that a binary run without
// -tsdb-dir pays nothing for the store's existence.
func BenchmarkNilStoreOffer(b *testing.B) {
	var s *Store
	batch := Batch{UnixMs: 1, Counters: map[string]int64{"x_total": 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Offer(batch)
		s.ReleaseSession("gone")
	}
}

// BenchmarkNilStoreCollect is the disabled convention for the store's
// collector hooks — the calls a scope set makes on every session
// teardown — on a nil *Store: a pointer check, 0 allocs/op.
func BenchmarkNilStoreCollect(b *testing.B) {
	var s *Store
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.CollectNow()
		s.EndSession("gone", nil)
	}
}

// BenchmarkStoreCollect is the enabled reference cost of one
// collection over a registry with a representative metric population:
// snapshot, diff against the baseline, offer to the ingest queue. The
// ingest loop is parked on the store lock while the loop runs, so the
// timing is the collection alone, not the concurrent apply of what it
// offers; the queue holds every offer. One counter moves per
// iteration, so every collection offers a batch.
func BenchmarkStoreCollect(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Counter(obs.SanitizeMetricName("bench_counter_" + string(rune('a'+i)))).Inc()
	}
	work := reg.Counter("bench_counter_a")
	reg.Gauge("bench_gauge").Set(1)
	reg.Histogram("bench_hist_seconds", obs.LatencyBuckets).Observe(0.01)
	s, err := Open(Options{
		Dir: b.TempDir(), Reg: reg, QueueCap: b.N + 1,
		CollectInterval: time.Hour, FlushInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	s.mu.Lock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.Inc()
		s.CollectNow()
	}
	b.StopTimer()
	s.mu.Unlock()
}

// BenchmarkStoreApplyBatch is the enabled reference cost of ingesting
// one delta batch with a representative series population: series
// lookup, cumulative accumulation, frame encoding into the
// group-commit buffer.
func BenchmarkStoreApplyBatch(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, Reg: obs.NewRegistry(), FlushInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := Batch{
		UnixMs: time.Now().UnixMilli(),
		Counters: map[string]int64{
			"bench_a_total": 1, "bench_b_total": 2, "bench_c_total": 3, "bench_d_total": 4,
		},
		Gauges: map[string]float64{
			"bench_g1": 1.5, "bench_g2": 2.5, "bench_g3": 3.5, "bench_g4": 4.5,
		},
		Histograms: map[string]HistDelta{
			"bench_h": {Count: 3, Sum: 0.5},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.UnixMs++
		s.applyBatch(batch)
		// Keep the group-commit buffer from growing unboundedly while
		// still charging the encode cost.
		if len(s.tiers[tierRaw].buf) > flushHighWater {
			s.mu.Lock()
			s.tiers[tierRaw].buf = s.tiers[tierRaw].buf[:0]
			s.mu.Unlock()
		}
	}
}

// BenchmarkInstantQuery is the read-side reference: parse + select +
// evaluate one rate() over a minute of 1s samples.
func BenchmarkInstantQuery(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, Reg: obs.NewRegistry(), FlushInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	base := time.Now().UnixMilli()
	for i := 0; i < 60; i++ {
		s.applyBatch(Batch{
			UnixMs:   base + int64(i)*1000,
			Counters: map[string]int64{"bench_q_total": 2},
		})
	}
	s.mu.Lock()
	s.tiers[tierRaw].flush()
	s.mu.Unlock()
	end := time.UnixMilli(base + 59_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Instant("rate(bench_q_total[1m])", end); err != nil {
			b.Fatal(err)
		}
	}
}
