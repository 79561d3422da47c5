package tsdb

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// DefaultLookback is how far an instant vector selector looks back for
// the latest sample — generous enough to bridge the 1m tier.
const DefaultLookback = 5 * time.Minute

// Labels identify one result series.
type Labels struct {
	Name    string `json:"__name__,omitempty"`
	Session string `json:"session,omitempty"`
}

// Sample is one instant-query result.
type Sample struct {
	Labels Labels
	T      int64 // unix ms
	V      float64
}

// Series is one range-query result: a labelled point list.
type Series struct {
	Labels Labels
	Points []Point
}

// Point is one (timestamp, value) pair in a query result.
type Point struct {
	T int64 // unix ms
	V float64
}

// rawSeries is one selected series with its merged cross-tier points.
type rawSeries struct {
	key    seriesKey
	kind   byte
	points []point
}

// selectRange gathers every series matching name (and, when filtered,
// session) with its points over [fromMs, toMs], merging tiers: raw
// where it survives, 10s before that, 1m before that — finest
// available data wins at every instant.
func (s *Store) selectRange(name, session string, filtered bool, fromMs, toMs int64) []rawSeries {
	if s == nil || fromMs > toMs {
		return nil
	}
	// Snapshot what to read under the lock; decode outside it. Sealed
	// segments are immutable; the open segment only grows, and the
	// decoder treats a mid-write tail as torn — so reading the file
	// after releasing the lock is safe.
	type tierRead struct {
		paths []string
		buf   []byte
	}
	var reads [numTiers]tierRead
	s.mu.Lock()
	for i := 0; i < numTiers; i++ {
		ts := s.tiers[i]
		for _, seg := range ts.sealed {
			if seg.minT == 0 || seg.maxT < fromMs || seg.minT > toMs {
				continue
			}
			reads[i].paths = append(reads[i].paths, seg.Path)
		}
		if ts.f != nil && ts.size > 0 {
			reads[i].paths = append(reads[i].paths, ts.f.Name())
		}
		if len(ts.buf) > 0 {
			reads[i].buf = append([]byte(nil), ts.buf...)
		}
	}
	s.mu.Unlock()

	match := func(key seriesKey) bool {
		if key.name != name {
			return false
		}
		return !filtered || key.session == session
	}
	// Per tier, per series: collected points in range.
	type acc struct {
		kind byte
		pts  [numTiers][]point
	}
	found := map[seriesKey]*acc{}
	for i := 0; i < numTiers; i++ {
		emit := func(key seriesKey, kind byte, t int64, v float64) {
			if t < fromMs || t > toMs || !match(key) {
				return
			}
			a := found[key]
			if a == nil {
				a = &acc{kind: kind}
				found[key] = a
			}
			a.pts[i] = append(a.pts[i], point{t, v})
		}
		for _, p := range reads[i].paths {
			scanSegment(p, emit)
		}
		if len(reads[i].buf) > 0 {
			scanFrames(reads[i].buf, emit)
		}
	}
	var out []rawSeries
	for key, a := range found {
		out = append(out, rawSeries{key: key, kind: a.kind, points: mergeTiers(a.pts)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.session != out[j].key.session {
			return out[i].key.session < out[j].key.session
		}
		return out[i].key.name < out[j].key.name
	})
	return out
}

// mergeTiers combines one series' per-tier points: all raw points, 10s
// points only before the first raw point, 1m points only before the
// first 10s-or-raw point. The result is sorted and de-duplicated.
func mergeTiers(pts [numTiers][]point) []point {
	for i := range pts {
		sortPoints(pts[i])
	}
	cut := int64(math.MaxInt64)
	var merged []point
	for _, tier := range []int{tierRaw, tier10s, tier1m} {
		for _, p := range pts[tier] {
			if p.t < cut {
				merged = append(merged, p)
			}
		}
		if len(pts[tier]) > 0 && pts[tier][0].t < cut {
			cut = pts[tier][0].t
		}
	}
	sortPoints(merged)
	// Collapse duplicate timestamps (flush/replay overlap): keep the
	// last written value.
	out := merged[:0]
	for _, p := range merged {
		if n := len(out); n > 0 && out[n-1].t == p.t {
			out[n-1] = p
			continue
		}
		out = append(out, p)
	}
	return out
}

// Instant evaluates expr at time t, returning a vector of samples.
func (s *Store) Instant(expr string, t time.Time) ([]Sample, error) {
	if s == nil {
		return nil, fmt.Errorf("tsdb: store disabled")
	}
	ast, err := parseExpr(expr)
	if err != nil {
		return nil, err
	}
	return s.eval(ast, t.UnixMilli())
}

// Range evaluates expr at each step across [start, end], returning a
// matrix of series.
func (s *Store) Range(expr string, start, end time.Time, step time.Duration) ([]Series, error) {
	if s == nil {
		return nil, fmt.Errorf("tsdb: store disabled")
	}
	if step <= 0 {
		return nil, fmt.Errorf("tsdb: non-positive step %v", step)
	}
	startMs, endMs := start.UnixMilli(), end.UnixMilli()
	if endMs < startMs {
		return nil, fmt.Errorf("tsdb: range end before start")
	}
	if (endMs-startMs)/step.Milliseconds() > 11_000 {
		return nil, fmt.Errorf("tsdb: range of %d steps exceeds the 11000-step limit; widen -step",
			(endMs-startMs)/step.Milliseconds())
	}
	ast, err := parseExpr(expr)
	if err != nil {
		return nil, err
	}
	// One selection pass over the widened window feeds every step.
	data := s.evalData(ast, startMs, endMs)
	var out []Series
	idx := map[Labels]int{}
	for ts := startMs; ts <= endMs; ts += step.Milliseconds() {
		samples := evalAt(ast, data, ts)
		for _, sm := range samples {
			i, ok := idx[sm.Labels]
			if !ok {
				i = len(out)
				idx[sm.Labels] = i
				out = append(out, Series{Labels: sm.Labels})
			}
			out[i].Points = append(out[i].Points, Point{ts, sm.V})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Labels.Session != out[j].Labels.Session {
			return out[i].Labels.Session < out[j].Labels.Session
		}
		return out[i].Labels.Name < out[j].Labels.Name
	})
	return out, nil
}

// eval runs one instant evaluation (selection + evaluation).
func (s *Store) eval(e *expr, tMs int64) ([]Sample, error) {
	data := s.evalData(e, tMs, tMs)
	return evalAt(e, data, tMs), nil
}

// evalData selects the series an expression needs to evaluate over
// [startMs, endMs]: the selector's window (or the instant lookback)
// widens the read range.
func (s *Store) evalData(e *expr, startMs, endMs int64) []rawSeries {
	sel := e.selector()
	widen := sel.windowMs
	if widen == 0 {
		widen = DefaultLookback.Milliseconds()
	}
	return s.selectRange(sel.name, sel.session, sel.sessionFiltered, startMs-widen, endMs)
}

// evalAt evaluates the expression tree at one instant over preselected
// data.
func evalAt(e *expr, data []rawSeries, tMs int64) []Sample {
	var out []Sample
	sel := e.selector()
	for _, rs := range data {
		var v float64
		var ok bool
		if e.fn == "" {
			v, ok = lastBefore(rs.points, tMs, DefaultLookback.Milliseconds())
		} else {
			v, ok = applyFunc(e.fn, e.param, rs.points, tMs, sel.windowMs)
		}
		if !ok {
			continue
		}
		out = append(out, Sample{
			Labels: Labels{Name: labelName(e, sel.name), Session: rs.key.session},
			T:      tMs,
			V:      v,
		})
	}
	if e.agg != "" {
		out = aggregate(e.agg, out, tMs)
	}
	return out
}

// labelName renders the result's __name__: the metric for a bare
// selector, fn(metric) for function results (aggregation drops it).
func labelName(e *expr, name string) string {
	if e.fn == "" {
		return name
	}
	return e.fn + "(" + name + ")"
}

// lastBefore finds the newest point at or before tMs within lookback.
func lastBefore(pts []point, tMs, lookbackMs int64) (float64, bool) {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].t > tMs })
	if i == 0 {
		return 0, false
	}
	p := pts[i-1]
	if tMs-p.t > lookbackMs {
		return 0, false
	}
	return p.v, true
}

// window returns the points in (tMs-windowMs, tMs].
func window(pts []point, tMs, windowMs int64) []point {
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].t > tMs-windowMs })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].t > tMs })
	return pts[lo:hi]
}

// applyFunc evaluates one range function over a series' window.
func applyFunc(fn string, param float64, pts []point, tMs, windowMs int64) (float64, bool) {
	w := window(pts, tMs, windowMs)
	if len(w) == 0 {
		return 0, false
	}
	switch fn {
	case "rate", "increase":
		if len(w) < 2 {
			return 0, false
		}
		// Reset-aware: a cumulative total that went backwards means the
		// producer restarted; the post-reset value is all new increase.
		inc := 0.0
		for i := 1; i < len(w); i++ {
			if d := w[i].v - w[i-1].v; d >= 0 {
				inc += d
			} else {
				inc += w[i].v
			}
		}
		if fn == "increase" {
			return inc, true
		}
		span := float64(w[len(w)-1].t-w[0].t) / 1000
		if span <= 0 {
			return 0, false
		}
		return inc / span, true
	case "avg_over_time":
		sum := 0.0
		for _, p := range w {
			sum += p.v
		}
		return sum / float64(len(w)), true
	case "max_over_time":
		m := w[0].v
		for _, p := range w[1:] {
			m = math.Max(m, p.v)
		}
		return m, true
	case "min_over_time":
		m := w[0].v
		for _, p := range w[1:] {
			m = math.Min(m, p.v)
		}
		return m, true
	case "quantile_over_time":
		vals := make([]float64, len(w))
		for i, p := range w {
			vals[i] = p.v
		}
		sort.Float64s(vals)
		return quantile(param, vals), true
	}
	return 0, false
}

// quantile interpolates like Prometheus' quantile_over_time.
func quantile(q float64, sorted []float64) float64 {
	if len(sorted) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		return math.Inf(-1)
	}
	if q > 1 {
		return math.Inf(+1)
	}
	n := float64(len(sorted))
	rank := q * (n - 1)
	lower := int(math.Floor(rank))
	upper := int(math.Ceil(rank))
	if lower == upper {
		return sorted[lower]
	}
	frac := rank - float64(lower)
	return sorted[lower]*(1-frac) + sorted[upper]*frac
}

// aggregate rolls a vector up across sessions: sum/avg/max/min. The
// result carries empty labels, Prometheus-style.
func aggregate(op string, in []Sample, tMs int64) []Sample {
	if len(in) == 0 {
		return nil
	}
	acc := in[0].V
	for _, sm := range in[1:] {
		switch op {
		case "sum", "avg":
			acc += sm.V
		case "max":
			acc = math.Max(acc, sm.V)
		case "min":
			acc = math.Min(acc, sm.V)
		}
	}
	if op == "avg" {
		acc /= float64(len(in))
	}
	return []Sample{{Labels: Labels{}, T: tMs, V: acc}}
}
