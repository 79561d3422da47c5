package health

import (
	"math"
	"sync"
	"time"

	"press/internal/obs"
	"press/internal/stats"
)

// DefaultInterval is the KPI sampling period when none is configured.
const DefaultInterval = time.Second

// DefaultCapacity bounds each KPI series and the SNR spectrogram.
const DefaultCapacity = 512

// Monitor computes channel-health KPIs from live observations, keeps
// them as bounded time series, and runs the alert engine over every
// sample. Producers push raw observations (an SNR curve, a condition-
// number profile, a search best, an actuation); a background sampler
// distills them into the KPIs of KPINames once per interval.
//
// A nil *Monitor discards all observations and returns empty snapshots,
// so producers hold one unconditionally.
type Monitor struct {
	reg      *obs.Registry
	interval time.Duration
	now      func() time.Time // test hook; time.Now by default

	// Notify, when set before Start, is called after every sample with
	// ("health", samplePayload) and after every alert transition with
	// ("alert", Event) — the bridge to obs.Server.Publish. Called with
	// the monitor's lock released.
	Notify func(event string, v any)

	mu sync.Mutex
	// Latest raw observations, distilled at each sample tick.
	lastSNR       []float64
	snrSeen       bool
	lastCond      []float64
	condSeen      bool
	lastBest      float64
	allTimeBest   float64
	bestSeen      bool
	lastActuation time.Time
	actuationSeen bool
	prevNullSub   int
	prevNullSeen  bool
	// Control-loop deadline accounting, accumulated between samples and
	// reset each interval (the KPIs are per-interval aggregates).
	loopCount      int64
	loopMisses     int64
	loopLatMaxNs   int64
	loopSlackMinNs int64
	loopSlackSeen  bool
	lastLoopTrace  uint64
	lastMissTrace  uint64
	series         map[string]*ring[Point]
	spec           *ring[SpectrogramRow]
	eng            *engine
	lastSampleMs   int64
	sampledSamples int64

	life obs.Lifecycle
}

// NewMonitor returns a monitor sampling KPIs every interval into series
// of DefaultCapacity points, evaluating rules each sample, and mirroring
// the latest KPI values as health_* gauges into reg (all of reg, rules
// may be nil/empty). A non-positive interval takes DefaultInterval.
func NewMonitor(reg *obs.Registry, rules []Rule, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = DefaultInterval
	}
	m := &Monitor{
		reg:      reg,
		interval: interval,
		now:      time.Now,
		series:   make(map[string]*ring[Point], len(KPINames)),
		spec:     newRing[SpectrogramRow](DefaultCapacity),
		eng:      newEngine(rules),
	}
	for _, name := range KPINames {
		m.series[name] = newRing[Point](DefaultCapacity)
	}
	m.eng.exemplar = m.exemplarLocked
	return m
}

// DefaultLoopErrorBudget is the tolerated deadline-miss ratio behind
// the loop_burn_rate KPI: burn rate = interval miss ratio / budget, so
// a value above 1 means the loop is missing coherence deadlines faster
// than the SLO allows.
const DefaultLoopErrorBudget = 0.01

// exemplarLocked maps a firing rule's metric to an exemplar trace ID —
// the most recent deadline-missing loop for the loop KPIs (falling back
// to the most recent traced loop). The engine calls it under m.mu.
func (m *Monitor) exemplarLocked(metric string) uint64 {
	switch metric {
	case KPILoopLatencyS, KPILoopSlackS, KPILoopMissRatio, KPILoopBurnRate:
		if m.lastMissTrace != 0 {
			return m.lastMissTrace
		}
		return m.lastLoopTrace
	}
	return 0
}

// ObserveSNR records the latest per-subcarrier SNR curve of the link
// under observation. The slice is copied.
func (m *Monitor) ObserveSNR(snrDB []float64) {
	if m == nil || len(snrDB) == 0 {
		return
	}
	m.mu.Lock()
	m.lastSNR = append(m.lastSNR[:0], snrDB...)
	m.snrSeen = true
	m.mu.Unlock()
}

// ObserveCondProfile records the latest per-subcarrier MIMO condition-
// number profile in dB. The slice is copied.
func (m *Monitor) ObserveCondProfile(condDB []float64) {
	if m == nil || len(condDB) == 0 {
		return
	}
	m.mu.Lock()
	m.lastCond = append(m.lastCond[:0], condDB...)
	m.condSeen = true
	m.mu.Unlock()
}

// ObserveSearchBest records the best objective value a configuration
// search has reached so far; regret is measured against the best value
// ever observed.
func (m *Monitor) ObserveSearchBest(best float64) {
	if m == nil || math.IsNaN(best) {
		return
	}
	m.mu.Lock()
	if !m.bestSeen || best > m.allTimeBest {
		m.allTimeBest = best
	}
	m.lastBest = best
	m.bestSeen = true
	m.mu.Unlock()
}

// ObserveActuation records that the control plane successfully applied
// a configuration now; staleness is measured from the latest call.
func (m *Monitor) ObserveActuation() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.lastActuation = m.now()
	m.actuationSeen = true
	m.mu.Unlock()
}

// ObserveLoop records one traced control-loop iteration: its end-to-end
// latency, the coherence deadline it ran against (0 = unbounded),
// whether it missed that deadline, and its trace ID (0 = untraced). The
// sampler distills the interval's accumulated loops into the loop_*
// KPIs.
func (m *Monitor) ObserveLoop(latency, deadline time.Duration, missed bool, traceID uint64) {
	if m == nil || latency < 0 {
		return
	}
	m.mu.Lock()
	m.loopCount++
	if missed {
		m.loopMisses++
		if traceID != 0 {
			m.lastMissTrace = traceID
		}
	}
	if traceID != 0 {
		m.lastLoopTrace = traceID
	}
	if int64(latency) > m.loopLatMaxNs {
		m.loopLatMaxNs = int64(latency)
	}
	if deadline > 0 {
		slack := int64(deadline) - int64(latency)
		if !m.loopSlackSeen || slack < m.loopSlackMinNs {
			m.loopSlackMinNs = slack
			m.loopSlackSeen = true
		}
	}
	m.mu.Unlock()
}

// Start launches the background sampler. Safe to call once; a nil
// monitor ignores it.
func (m *Monitor) Start() {
	if m == nil {
		return
	}
	m.life.Start(func() { m.Sample() }, m.loop) // immediate first sample so short runs still record
}

// Stop halts the sampler and waits for it to exit. Safe to call
// multiple times and on a never-started or nil monitor.
func (m *Monitor) Stop() {
	if m == nil {
		return
	}
	m.life.Stop()
}

func (m *Monitor) loop(stop <-chan struct{}) {
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.Sample()
		}
	}
}

// samplePayload is the SSE "health" event body.
type samplePayload struct {
	UnixMs int64              `json:"unix_ms"`
	KPIs   map[string]float64 `json:"kpis"`
	SNRdB  []float64          `json:"snr_db,omitempty"`
	Firing int                `json:"firing"`
}

// Sample distills the current observations into one KPI sample,
// appends it to the series, evaluates the alert rules, and mirrors the
// values into the registry. Called by the background loop; exported so
// tests (and interval-free embedders) can drive sampling directly.
func (m *Monitor) Sample() {
	if m == nil {
		return
	}
	now := m.now()
	unixMs := now.UnixMilli()

	m.mu.Lock()
	kpis := m.computeLocked(now)
	for name, v := range kpis {
		if !math.IsNaN(v) {
			m.series[name].push(Point{UnixMs: unixMs, Value: v})
		}
	}
	var row []float64
	if m.snrSeen {
		row = append(row, m.lastSNR...)
		m.spec.push(SpectrogramRow{UnixMs: unixMs, SNRdB: row})
	}
	kpi := func(name string) float64 {
		if v, ok := kpis[name]; ok {
			return v
		}
		return math.NaN()
	}
	window := func(metric string, n int, dst []float64) []float64 {
		if s, ok := m.series[metric]; ok {
			return lastValues(s, n, dst)
		}
		return dst
	}
	events := m.eng.eval(unixMs, kpi, window)
	firing := m.eng.firing()
	m.lastSampleMs = unixMs
	m.sampledSamples++
	m.mu.Unlock()

	// Mirror into the registry so /metrics and final snapshots carry the
	// latest KPI values without a separate scrape path.
	for name, v := range kpis {
		if !math.IsNaN(v) {
			m.reg.Gauge("health_" + name).Set(v)
		}
	}
	m.reg.Gauge("health_alerts_firing").Set(float64(firing))

	if m.Notify != nil {
		clean := make(map[string]float64, len(kpis))
		for name, v := range kpis {
			if !math.IsNaN(v) {
				clean[name] = v
			}
		}
		m.Notify("health", samplePayload{UnixMs: unixMs, KPIs: clean, SNRdB: row, Firing: firing})
		for _, ev := range events {
			m.Notify("alert", ev)
		}
	}
}

// computeLocked derives the KPI map from the latest raw observations.
// Unavailable KPIs are NaN. Caller holds m.mu.
func (m *Monitor) computeLocked(now time.Time) map[string]float64 {
	nan := math.NaN()
	kpis := map[string]float64{
		KPIMinSNRdB: nan, KPINullDepthDB: nan, KPINullSubcarrier: nan,
		KPINullDriftSC: nan, KPICondDB: nan, KPISearchBest: nan,
		KPISearchRegretDB: nan, KPIControlStalenessS: nan,
		KPILoopLatencyS: nan, KPILoopSlackS: nan,
		KPILoopMissRatio: nan, KPILoopBurnRate: nan,
	}
	if m.snrSeen {
		kpis[KPIMinSNRdB] = stats.Min(m.lastSNR)
		// minDepthDB 0: always locate the deepest null; rules decide what
		// depth is alarming.
		if null, ok := stats.MostSignificantNull(m.lastSNR, 0); ok {
			kpis[KPINullDepthDB] = null.DepthDB
			kpis[KPINullSubcarrier] = float64(null.Subcarrier)
			if m.prevNullSeen {
				kpis[KPINullDriftSC] = math.Abs(float64(null.Subcarrier - m.prevNullSub))
			}
			m.prevNullSub = null.Subcarrier
			m.prevNullSeen = true
		}
	}
	if m.condSeen {
		kpis[KPICondDB] = stats.Median(m.lastCond)
	}
	if m.bestSeen {
		kpis[KPISearchBest] = m.lastBest
		kpis[KPISearchRegretDB] = m.allTimeBest - m.lastBest
	}
	if m.actuationSeen {
		kpis[KPIControlStalenessS] = now.Sub(m.lastActuation).Seconds()
	}
	if m.loopCount > 0 {
		kpis[KPILoopLatencyS] = float64(m.loopLatMaxNs) / 1e9
		if m.loopSlackSeen {
			kpis[KPILoopSlackS] = float64(m.loopSlackMinNs) / 1e9
		}
		ratio := float64(m.loopMisses) / float64(m.loopCount)
		kpis[KPILoopMissRatio] = ratio
		kpis[KPILoopBurnRate] = ratio / DefaultLoopErrorBudget
		m.loopCount, m.loopMisses = 0, 0
		m.loopLatMaxNs, m.loopSlackMinNs, m.loopSlackSeen = 0, 0, false
	}
	return kpis
}

// Snapshot is the /health.json document: every KPI series, the SNR
// spectrogram, and the alert state.
type Snapshot struct {
	UnixMs      int64              `json:"unix_ms"`
	IntervalMs  int64              `json:"interval_ms"`
	Samples     int64              `json:"samples"`
	Series      map[string][]Point `json:"series"`
	Spectrogram []SpectrogramRow   `json:"spectrogram"`
	Alerts      AlertsSnapshot     `json:"alerts"`
}

// Snapshot copies the monitor's state. Safe on a nil monitor.
func (m *Monitor) Snapshot() Snapshot {
	snap := Snapshot{Series: map[string][]Point{}, Spectrogram: []SpectrogramRow{}}
	if m == nil {
		snap.Alerts = (*engine)(nil).snapshot(0)
		return snap
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap.UnixMs = m.lastSampleMs
	snap.IntervalMs = m.interval.Milliseconds()
	snap.Samples = m.sampledSamples
	for name, s := range m.series {
		if s.count > 0 {
			snap.Series[name] = s.items()
		}
	}
	snap.Spectrogram = m.spec.items()
	snap.Alerts = m.eng.snapshot(m.lastSampleMs)
	return snap
}

// Alerts returns the current alert state. Safe on a nil monitor.
func (m *Monitor) Alerts() AlertsSnapshot {
	if m == nil {
		return (*engine)(nil).snapshot(0)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.snapshot(m.lastSampleMs)
}
