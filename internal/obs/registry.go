// Package obs is the repository's dependency-free telemetry layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight span timing for nested phase measurement, and
// a structured leveled logger — the visibility the PRESS controller
// needs as an always-on service (evaluation budgets, search convergence,
// channel-solve latency, control-plane round-trips).
//
// Everything is nil-safe: a nil *Registry hands out nil metric handles,
// and every method on a nil handle is a no-op. Library code therefore
// instruments unconditionally, through the scope a producer holds —
//
//	l.sc.Registry().Counter("radio_csi_measurements_total").Inc()
//
// — and pays only nil checks when telemetry is disabled, which is the
// default. Only the CLI entry points ever construct a live Registry.
//
// Exposition is pull-based: Snapshot/WriteJSON produce a JSON snapshot,
// WriteText the Prometheus text format. See DESIGN.md for why the layer
// snapshots on demand instead of pushing.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. All methods are safe for concurrent use;
// a nil *Registry is a valid, permanently disabled registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat

	// parent, when set, receives every write made through this registry's
	// handles as well: the handles are chained at creation time, so the
	// hot path stays lock-free (one extra atomic op per level). This is
	// how per-session scopes roll up into the process-wide registry.
	parent *Registry

	// trace, when set, additionally receives every completed span as a
	// timeline event (see TraceLog).
	trace atomic.Pointer[TraceLog]
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*spanStat),
	}
}

// NewRegistryWithParent returns a registry whose metric handles
// dual-write into parent: incrementing a counter obtained from the
// child also increments the same-named counter in the parent (and so on
// up the chain), so the parent's exposition is always the roll-up of
// every child plus its own direct writes. Gauges chain with last-write-
// wins semantics across children — meaningful for per-process readings,
// approximate when many sessions write the same gauge name. Spans and
// histograms roll up exactly. A nil parent is equivalent to
// NewRegistry.
func NewRegistryWithParent(parent *Registry) *Registry {
	r := NewRegistry()
	r.parent = parent
	return r
}

// Parent returns the roll-up target, nil for a root (or nil) registry.
func (r *Registry) Parent() *Registry {
	if r == nil {
		return nil
	}
	return r.parent
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	// Resolve the parent's handle outside our own lock (the parent may
	// itself need its write lock); idempotent if we lose the race below.
	var next *Counter
	if r.parent != nil {
		next = r.parent.Counter(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{next: next}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	var next *Gauge
	if r.parent != nil {
		next = r.parent.Gauge(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{next: next}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil buckets mean DefBuckets; the
// bounds are sorted and deduplicated). Later calls return the existing
// histogram regardless of the buckets argument. A nil registry returns a
// nil (no-op) histogram.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	var next *Histogram
	if r.parent != nil {
		next = r.parent.Histogram(name, buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(buckets)
		h.next = next
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64. The zero value is ready;
// a nil *Counter discards every operation. A counter handed out by a
// child registry (NewRegistryWithParent) carries a link to the parent's
// same-named counter and mirrors every write into it.
type Counter struct {
	v    atomic.Int64
	next *Counter // parent chain; nil for a root registry's counter
}

// Inc adds one.
func (c *Counter) Inc() {
	for ; c != nil; c = c.next {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n <= 0 {
		return
	}
	for ; c != nil; c = c.next {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64. The zero value is ready; a nil
// *Gauge discards every operation. A child registry's gauge mirrors
// writes into its parent's same-named gauge (last writer wins across
// children).
type Gauge struct {
	bits atomic.Uint64
	next *Gauge // parent chain; nil for a root registry's gauge
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	bits := math.Float64bits(v)
	for ; g != nil; g = g.next {
		g.bits.Store(bits)
	}
}

// Add shifts the value by d.
func (g *Gauge) Add(d float64) {
	for ; g != nil; g = g.next {
		for {
			old := g.bits.Load()
			next := math.Float64bits(math.Float64frombits(old) + d)
			if g.bits.CompareAndSwap(old, next) {
				break
			}
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (Prometheus-style
// upper bounds plus an implicit +Inf overflow bucket) and tracks the sum
// and count. A nil *Histogram discards every observation.
type Histogram struct {
	bounds  []float64 // sorted, strictly increasing upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	ex      atomic.Pointer[exemplar]
	next    *Histogram // parent chain; nil for a root registry's histogram
}

// exemplar links one observation to the trace that produced it — how a
// latency histogram points at a concrete /tracez span tree.
type exemplar struct {
	v      float64
	trace  uint64
	unixNs int64
}

// DefBuckets suits generic positive magnitudes (scores, path counts).
var DefBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

// LatencyBuckets suits durations in seconds, from 100 µs to 2.5 s —
// the range spanning channel solves, actuation RTTs, and full sweeps.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// LinearBuckets returns count bounds start, start+width, ...
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count bounds start, start·factor, ...
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	// Deduplicate so each bound is strictly increasing.
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, buckets: make([]atomic.Int64, len(uniq)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v; the last slot is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	// Parent buckets may differ (first-create wins per registry), so the
	// roll-up re-observes rather than copying the bucket index.
	h.next.Observe(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and, when trace is non-zero, retains
// (value, trace) as the histogram's most-recent exemplar — the join key
// from a latency metric to the span tree that produced the reading. The
// exemplar propagates up the parent chain like the observation itself.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace == 0 {
		return
	}
	ex := &exemplar{v: v, trace: trace, unixNs: time.Now().UnixNano()}
	for e := h; e != nil; e = e.next {
		e.ex.Store(ex)
	}
}

// Exemplar returns the most recent exemplar observation and its trace
// ID; ok is false when none was ever recorded (or on a nil histogram).
func (h *Histogram) Exemplar() (v float64, trace uint64, ok bool) {
	if h == nil {
		return 0, 0, false
	}
	ex := h.ex.Load()
	if ex == nil {
		return 0, 0, false
	}
	return ex.v, ex.trace, true
}

// ObserveN records n observations of value v in one operation — the
// bulk path the runtime-metrics sampler uses to mirror a cumulative
// runtime/metrics histogram bucket delta without n separate Observes.
// n ≤ 0 is a no-op.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.next.ObserveN(v, n)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// spanStat accumulates completed span durations for one span name.
// Spans fire at phase granularity (not per-sample), so a mutex is fine.
type spanStat struct {
	mu       sync.Mutex
	count    int64
	total    time.Duration
	min, max time.Duration
}

// SetTraceLog attaches (or, with nil, detaches) a trace log: every span
// completed against this registry is additionally recorded as a timeline
// event on the track named by the span's first path segment. Safe for
// concurrent use. A nil registry ignores the call.
func (r *Registry) SetTraceLog(t *TraceLog) {
	if r == nil {
		return
	}
	r.trace.Store(t)
}

// TraceLog returns the attached trace log, or nil (also for a nil
// registry).
func (r *Registry) TraceLog() *TraceLog {
	if r == nil {
		return nil
	}
	return r.trace.Load()
}

// observeSpan records one completed span.
func (r *Registry) observeSpan(name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	if t := r.trace.Load(); t != nil {
		t.Record(spanTrack(name), name, 0, start, d, nil)
	}
	r.mu.RLock()
	s := r.spans[name]
	r.mu.RUnlock()
	if s == nil {
		r.mu.Lock()
		if s = r.spans[name]; s == nil {
			s = &spanStat{}
			r.spans[name] = s
		}
		r.mu.Unlock()
	}
	s.mu.Lock()
	s.count++
	s.total += d
	if s.count == 1 || d < s.min {
		s.min = d
	}
	if d > s.max {
		s.max = d
	}
	s.mu.Unlock()
	// Spans roll up too, so the process registry's span summaries cover
	// every session. The parent's own trace log (if any) also sees the
	// span — sessions rarely attach separate trace logs, so in practice
	// exactly one level records timeline events.
	r.parent.observeSpan(name, start, d)
}
