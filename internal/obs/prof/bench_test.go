package prof

import "testing"

// BenchmarkSpan measures the phase-accounting hook the physics loops
// pay per call: open + close one span. Budget: the nil case must be a
// pointer check (~1 ns), the enabled leaf case a clock read plus two
// atomic adds, and the enabled root case additionally a runtime/metrics
// read at each end. All zero allocations.
func BenchmarkSpan(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var c *Collector
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := c.Start(PhaseChannelSum)
			s.End()
		}
	})
	b.Run("leaf", func(b *testing.B) {
		c := NewCollector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := c.Start(PhaseChannelSum)
			s.End()
		}
	})
	b.Run("root", func(b *testing.B) {
		c := NewCollector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := c.Start(PhaseSweep)
			s.End()
		}
	})
}

// BenchmarkAdd is the auxiliary-counter path (one atomic add behind a
// nil check), batched ×8 per iteration: the nil case is sub-nanosecond,
// and an op that small sits below the clock resolution of the short
// -benchtime=100x CI gate runs, making per-call timings pure noise.
// Divide ns/op by 8 for the per-call cost.
func BenchmarkAdd(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var c *Collector
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				c.Add(PhaseChannelSum, AuxSubcarrierEvals, 52)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		c := NewCollector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				c.Add(PhaseChannelSum, AuxSubcarrierEvals, 52)
			}
		}
	})
}

// BenchmarkSnapshot is the flusher's cost: reading every counter and
// materializing wire records, paid once per flush interval.
func BenchmarkSnapshot(b *testing.B) {
	c := NewCollector()
	for p := Phase(0); p < NumPhases; p++ {
		s := c.Start(p)
		s.End()
		c.Add(p, 0, 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink2 = c.Snapshot()
	}
}

var sink2 any
