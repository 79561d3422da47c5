package health

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/obstest"
)

// snrWithNull builds a flat 20 dB curve with one null of the given depth
// at subcarrier idx.
func snrWithNull(n, idx int, depthDB float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 20
	}
	out[idx] = 20 - depthDB
	return out
}

// SNRWithNull exposes snrWithNull to the external CLI tests.
var SNRWithNull = snrWithNull

func TestMonitorKPIComputation(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor(reg, nil, time.Hour, 16)
	clock := time.Unix(1000, 0)
	m.now = func() time.Time { return clock }

	m.ObserveSNR(snrWithNull(48, 7, 30))
	m.ObserveCondProfile([]float64{2, 4, 6})
	m.ObserveSearchBest(10)
	m.ObserveActuation()
	clock = clock.Add(3 * time.Second)
	m.Sample()

	snap := m.Snapshot()
	latest := func(name string) float64 {
		pts := snap.Series[name]
		if len(pts) == 0 {
			t.Fatalf("no points for %s", name)
		}
		return pts[len(pts)-1].Value
	}
	if v := latest(KPIMinSNRdB); v != -10 {
		t.Errorf("min_snr_db = %v", v)
	}
	if v := latest(KPINullDepthDB); v != 30 {
		t.Errorf("null_depth_db = %v", v)
	}
	if v := latest(KPINullSubcarrier); v != 7 {
		t.Errorf("null_subcarrier = %v", v)
	}
	if v := latest(KPICondDB); v != 4 {
		t.Errorf("cond_db = %v (want median)", v)
	}
	if v := latest(KPISearchBest); v != 10 {
		t.Errorf("search_best = %v", v)
	}
	if v := latest(KPISearchRegretDB); v != 0 {
		t.Errorf("search_regret_db = %v", v)
	}
	if v := latest(KPIControlStalenessS); v != 3 {
		t.Errorf("control_staleness_s = %v (3 s since actuation)", v)
	}
	// No drift KPI yet: needs two samples with a located null.
	if _, ok := snap.Series[KPINullDriftSC]; ok {
		t.Error("null_drift_sc present after one sample")
	}
	if len(snap.Spectrogram) != 1 || len(snap.Spectrogram[0].SNRdB) != 48 {
		t.Errorf("spectrogram = %d rows", len(snap.Spectrogram))
	}

	// Second sample: null moves 5 subcarriers, search regresses 2 dB.
	m.ObserveSNR(snrWithNull(48, 12, 28))
	m.ObserveSearchBest(8)
	m.Sample()
	snap = m.Snapshot()
	if v := latest(KPINullDriftSC); v != 5 {
		t.Errorf("null_drift_sc = %v", v)
	}
	if v := latest(KPISearchRegretDB); v != 2 {
		t.Errorf("search_regret_db = %v (all-time best 10, current 8)", v)
	}

	// KPIs mirror into the registry as health_* gauges.
	ms := reg.Snapshot()
	if g := ms.Gauges["health_null_depth_db"]; g != 28 {
		t.Errorf("health_null_depth_db gauge = %v", g)
	}
	if g, ok := ms.Gauges["health_alerts_firing"]; !ok || g != 0 {
		t.Errorf("health_alerts_firing gauge = %v, %v", g, ok)
	}
}

func TestMonitorSeriesBounded(t *testing.T) {
	m := NewMonitor(nil, nil, time.Hour, 8)
	m.now = func() time.Time { return time.Unix(5, 0) }
	for i := 0; i < 50; i++ {
		m.ObserveSNR(snrWithNull(16, i%16, 10))
		m.Sample()
	}
	snap := m.Snapshot()
	for name, pts := range snap.Series {
		if len(pts) > 8 {
			t.Errorf("series %s holds %d points, cap 8", name, len(pts))
		}
	}
	if len(snap.Spectrogram) > 8 {
		t.Errorf("spectrogram holds %d rows, cap 8", len(snap.Spectrogram))
	}
	if snap.Samples != 50 {
		t.Errorf("samples = %d", snap.Samples)
	}
}

func TestMonitorAlertsAndNotify(t *testing.T) {
	rules := mustRules(t, "null_depth_db>25 for 2 clear 20")
	m := NewMonitor(nil, rules, time.Hour, 16)
	m.now = func() time.Time { return time.Unix(9, 0) }
	type note struct {
		event string
		v     any
	}
	var notes []note
	m.Notify = func(event string, v any) { notes = append(notes, note{event, v}) }

	for i := 0; i < 3; i++ {
		m.ObserveSNR(snrWithNull(32, 3, 30))
		m.Sample()
	}
	al := m.Alerts()
	if al.Firing != 1 || al.Rules[0].State != StateFiring {
		t.Fatalf("alerts = %+v", al)
	}
	var alerts int
	for _, n := range notes {
		switch n.event {
		case "health":
			p, ok := n.v.(samplePayload)
			if !ok {
				t.Fatalf("health payload %T", n.v)
			}
			for k, v := range p.KPIs {
				if math.IsNaN(v) {
					t.Errorf("NaN KPI %s leaked into payload", k)
				}
			}
		case "alert":
			alerts++
		}
	}
	if alerts != 2 { // inactive→pending, pending→firing
		t.Errorf("saw %d alert notifications, want 2", alerts)
	}

	// Recovery below the clear level resolves after 2 healthy samples.
	for i := 0; i < 2; i++ {
		m.ObserveSNR(snrWithNull(32, 3, 10))
		m.Sample()
	}
	if al := m.Alerts(); al.Rules[0].State != StateResolved {
		t.Errorf("state after recovery = %v", al.Rules[0].State)
	}
}

func TestMonitorSnapshotJSON(t *testing.T) {
	// Even a sample with unknown KPIs (NaN internally) must serialize:
	// NaN never reaches a JSON-bound struct.
	m := NewMonitor(nil, mustRules(t, "default"), time.Hour, 4)
	m.now = func() time.Time { return time.Unix(2, 0) }
	m.Sample() // nothing observed: all KPIs unknown
	if _, err := json.Marshal(m.Snapshot()); err != nil {
		t.Fatalf("snapshot with unknown KPIs not serializable: %v", err)
	}
	if _, err := json.Marshal(m.Alerts()); err != nil {
		t.Fatalf("alerts not serializable: %v", err)
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.ObserveSNR([]float64{1})
	m.ObserveCondProfile([]float64{1})
	m.ObserveSearchBest(1)
	m.ObserveActuation()
	m.Sample()
	m.Start()
	m.Stop()
	if snap := m.Snapshot(); snap.Series == nil || snap.Spectrogram == nil {
		t.Error("nil monitor snapshot has nil fields")
	}
	if al := m.Alerts(); al.Rules == nil {
		t.Error("nil monitor alerts has nil rules")
	}
}

func TestMonitorStartStop(t *testing.T) {
	m := NewMonitor(nil, nil, time.Millisecond, 16)
	m.ObserveSNR(snrWithNull(8, 1, 6))
	m.Start()
	obstest.WaitUntil(t, 2*time.Second, func() bool { return m.Snapshot().Samples >= 2 })
	m.Stop()
	m.Stop() // idempotent
	if s := m.Snapshot().Samples; s < 2 {
		t.Errorf("background sampler took %d samples", s)
	}
	// Stop on a never-started monitor must not hang.
	NewMonitor(nil, nil, time.Hour, 4).Stop()
}

func TestMonitorObservationsCopied(t *testing.T) {
	m := NewMonitor(nil, nil, time.Hour, 4)
	m.now = func() time.Time { return time.Unix(1, 0) }
	snr := snrWithNull(8, 2, 12)
	m.ObserveSNR(snr)
	snr[2] = 999 // caller reuses its buffer
	m.Sample()
	pts := m.Snapshot().Series[KPINullDepthDB]
	if len(pts) != 1 || pts[0].Value != 12 {
		t.Errorf("mutation leaked into monitor: %+v", pts)
	}
}

func TestMonitorObserveLoopKPIs(t *testing.T) {
	m := NewMonitor(nil, nil, time.Hour, 8)
	m.now = func() time.Time { return time.Unix(10, 0) }
	// Three loops against an 8ms deadline: two hit, one misses by 4ms.
	m.ObserveLoop(5*time.Millisecond, 8*time.Millisecond, false, 0x11)
	m.ObserveLoop(6*time.Millisecond, 8*time.Millisecond, false, 0x22)
	m.ObserveLoop(12*time.Millisecond, 8*time.Millisecond, true, 0x33)
	m.Sample()
	snap := m.Snapshot()
	want := map[string]float64{
		KPILoopLatencyS:  0.012,
		KPILoopSlackS:    -0.004,
		KPILoopMissRatio: 1.0 / 3,
		KPILoopBurnRate:  (1.0 / 3) / DefaultLoopErrorBudget,
	}
	for name, v := range want {
		pts := snap.Series[name]
		if len(pts) != 1 || math.Abs(pts[0].Value-v) > 1e-9 {
			t.Errorf("%s = %+v, want %v", name, pts, v)
		}
	}
	// The interval accumulator resets: a loop-free sample leaves the
	// series untouched (NaN KPIs are not appended).
	m.Sample()
	if pts := m.Snapshot().Series[KPILoopMissRatio]; len(pts) != 1 {
		t.Errorf("loop-free interval appended a point: %+v", pts)
	}
}

func TestMonitorLoopBurnRateAlertExemplar(t *testing.T) {
	rules, err := ParseRules("burn=loop_burn_rate>1 for 2")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(nil, rules, time.Hour, 8)
	m.now = func() time.Time { return time.Unix(20, 0) }
	var events []Event
	m.Notify = func(event string, v any) {
		if ev, ok := v.(Event); ok && event == "alert" {
			events = append(events, ev)
		}
	}
	for i := 0; i < 2; i++ {
		m.ObserveLoop(20*time.Millisecond, 8*time.Millisecond, true, 0xbeef)
		m.Sample()
	}
	var firing *Event
	for i := range events {
		if events[i].To == StateFiring {
			firing = &events[i]
		}
	}
	if firing == nil {
		t.Fatalf("burn-rate rule never fired; events: %+v", events)
	}
	if firing.TraceID != obs.FormatTraceID(0xbeef) {
		t.Errorf("firing event trace = %q, want %q", firing.TraceID, obs.FormatTraceID(0xbeef))
	}
	// The exemplar also lands in the /alerts event log.
	found := false
	for _, ev := range m.Alerts().Events {
		if ev.To == StateFiring && ev.TraceID == obs.FormatTraceID(0xbeef) {
			found = true
		}
	}
	if !found {
		t.Error("/alerts events missing the firing exemplar trace")
	}
}
