package scope

import (
	"testing"

	"press/internal/obs"
)

// BenchmarkNilScopeCounter is the disabled-path contract: telemetry off
// means one pointer check and 0 allocs/op on the producer hot path.
// Enforced in CI via BENCH_scope.json + `pressbench gate`.
func BenchmarkNilScopeCounter(b *testing.B) {
	var s *Scope
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Registry().Counter("bench_evals_total").Inc()
	}
}

// BenchmarkNilScopeObserveCSI covers the per-sounding nil-scope
// producer path: a link with no scope attached fans each estimate out
// to nothing.
func BenchmarkNilScopeObserveCSI(b *testing.B) {
	var s *Scope
	snr := []float64{20, 21, 22}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ObserveCSI(snr)
	}
}

// BenchmarkScopedCounterInc measures the roll-up tax: one extra atomic
// add per parent level over a root-registry increment.
func BenchmarkScopedCounterInc(b *testing.B) {
	set := NewSet(obs.NewRegistry(), 0)
	defer set.Close()
	s, err := set.Open("bench", "")
	if err != nil {
		b.Fatal(err)
	}
	c := s.Registry().Counter("bench_evals_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkRootCounterInc is the baseline the scoped increment is
// compared against.
func BenchmarkRootCounterInc(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_evals_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkScopeOpenClose measures session churn: create a scope in a
// set (registry child only — the daemon's cheapest session shape) and
// tear it down.
func BenchmarkScopeOpenClose(b *testing.B) {
	parent := obs.NewRegistry()
	set := NewSet(parent, 4)
	defer set.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := set.Open("bench", "")
		if err != nil {
			b.Fatal(err)
		}
		s.Registry().Counter("bench_churn_total").Inc()
		if err := set.Remove("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
