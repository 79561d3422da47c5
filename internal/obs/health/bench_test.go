package health

import (
	"math"
	"testing"
	"time"

	"press/internal/obs"
)

// populatedMonitor builds a monitor mid-flight: full 64-subcarrier SNR
// curve, condition profile, search and actuation state, default rules.
func populatedMonitor(reg *obs.Registry) *Monitor {
	rules, err := ParseRules("default")
	if err != nil {
		panic(err)
	}
	m := NewMonitor(reg, rules, time.Second)
	snr := make([]float64, 64)
	for i := range snr {
		snr[i] = 22 + 6*math.Sin(float64(i)/7)
	}
	snr[40] = -8 // a deep null to locate
	m.ObserveSNR(snr)
	m.ObserveCondProfile([]float64{3, 5, 8, 4})
	m.ObserveSearchBest(17)
	m.ObserveActuation()
	for i := 0; i < 32; i++ {
		m.Sample() // warm the series so trend windows are full
	}
	return m
}

// BenchmarkMonitorSample is the full per-tick cost with telemetry on:
// KPI computation over 64 subcarriers, ring appends, rule evaluation,
// and registry gauge mirroring.
func BenchmarkMonitorSample(b *testing.B) {
	m := populatedMonitor(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sample()
	}
}

// BenchmarkEngineEval isolates the alert-rule machine: four default
// rules, one of them a trend rule reading an 8-sample window.
func BenchmarkEngineEval(b *testing.B) {
	rules, err := ParseRules("default")
	if err != nil {
		b.Fatal(err)
	}
	e := newEngine(rules)
	hist := newRing[Point](64)
	for i := 0; i < 64; i++ {
		hist.push(Point{UnixMs: int64(i), Value: 5})
	}
	kpi := func(name string) float64 { return 5 }
	window := func(name string, n int, dst []float64) []float64 { return lastValues(hist, n, dst) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.eval(int64(i), kpi, window)
	}
}

// BenchmarkObserveSNR is the producer-side cost on the measurement hot
// path (one curve copy under the monitor lock).
func BenchmarkObserveSNR(b *testing.B) {
	m := populatedMonitor(nil)
	snr := make([]float64, 64)
	for i := range snr {
		snr[i] = 20
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveSNR(snr)
	}
}

// BenchmarkNilMonitorObserve is the disabled default: producers call
// through a nil monitor. Must stay 0 allocs/op (and ~0 ns).
func BenchmarkNilMonitorObserve(b *testing.B) {
	var m *Monitor
	snr := []float64{1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveSNR(snr)
		m.ObserveSearchBest(1)
		m.ObserveActuation()
	}
	if testing.AllocsPerRun(100, func() {
		m.ObserveSNR(snr)
		m.ObserveSearchBest(1)
		m.ObserveActuation()
	}) != 0 {
		b.Fatal("nil-monitor observe path allocates")
	}
}
