package controlplane

import (
	"context"
	"testing"
	"time"

	"press/internal/element"
)

// BenchmarkSetConfigRoundTrip times one actuation round trip, SetConfig
// to its matching ack, between a Controller and an Agent over the
// in-memory pipe. "clean" loses nothing, so it is the cost of framing,
// CRC and the goroutine hand-offs; "lossy" drops 10 % and corrupts 5 % of
// the frames each way (seeded), and the controller rides that out by
// retrying after a 1 ms ack timeout, so its time is mostly those waits.
func BenchmarkSetConfigRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		pipe LossyConfig
	}{
		{"clean", LossyConfig{Seed: 21}},
		{"lossy", LossyConfig{Seed: 22, LossRate: 0.1, CorruptRate: 0.05}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a, c := NewLossyPipe(bc.pipe)
			arr := testArray(4)
			startAgent(b, NewAgent(1, arr), a)
			ctrl := NewController(c)
			ctrl.Timeout = time.Millisecond
			ctrl.Retries = 50
			cfgs := make([]element.Config, arr.NumConfigs())
			for i := range cfgs {
				cfgs[i] = arr.ConfigAt(i)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctrl.SetConfig(ctx, cfgs[i%len(cfgs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
