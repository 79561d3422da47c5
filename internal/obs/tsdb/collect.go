package tsdb

import (
	"sync"
	"sync/atomic"
	"time"

	"press/internal/obs"
)

// The store's own collector. On a timer it snapshots the registry it
// was opened with (Options.Reg) and every live per-session registry a
// session source enumerates, turns each snapshot into a delta Batch
// against that source's baseline, and offers the batch to the ingest
// queue. A baseline advances only when its batch is accepted, so the
// deltas of a batch dropped on a full queue fold into the next one and
// the stored totals still reconcile with the registries.

// HistDelta is a histogram's increment between two snapshots: how many
// observations arrived and what they summed to.
type HistDelta struct {
	Count int64
	Sum   float64
}

// SpanDelta is a span aggregate's increment between two snapshots.
type SpanDelta struct {
	Count        int64
	TotalSeconds float64
}

// Batch is one ingest unit: the delta of one source registry since its
// previous accepted batch, stamped with the session the registry
// belongs to ("" = the process root). Counters, histogram count/sum
// pairs and span aggregates are increments; gauges carry their latest
// value.
type Batch struct {
	Session    string
	UnixMs     int64
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistDelta
	Spans      map[string]SpanDelta

	// release drops the session's live ingest state once the batch is
	// applied: a departing session's tail and its release travel
	// through the queue together, so the tail cannot land after the
	// release and restart the session's counters from zero.
	release bool
}

// empty reports whether the batch carries no data beyond its stamp.
func (b Batch) empty() bool {
	return len(b.Counters) == 0 && len(b.Gauges) == 0 &&
		len(b.Histograms) == 0 && len(b.Spans) == 0
}

// sessionSource enumerates live per-session registries: emit is called
// once per session with its ID and registry.
type sessionSource func(emit func(id string, reg *obs.Registry))

// baseline is the last accepted snapshot of one source, the subtrahend
// of its next delta.
type baseline struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]HistDelta
	spans    map[string]SpanDelta
	seen     bool // the source has had a batch accepted
}

func newBaseline() *baseline {
	return &baseline{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]HistDelta{},
		spans:    map[string]SpanDelta{},
	}
}

// collector is the Store's collection state (Store.col).
type collector struct {
	life     obs.Lifecycle
	sessions atomic.Pointer[sessionSource]
	// mu serializes collections (the timer, CollectNow, EndSession and
	// Close's tail) over base, the per-source baselines keyed by session
	// ("" = the root registry).
	mu   sync.Mutex
	base map[string]*baseline
}

// collects reports whether the store runs its collector: a writable
// store with a registry to collect from and a cadence to do it at.
func (s *Store) collects() bool {
	return s != nil && s.opt.Reg != nil && s.opt.CollectInterval > 0 && !s.opt.ReadOnly
}

// SetSessions installs (or, with nil, removes) the enumerator of live
// per-session registries that each collection also diffs; the scope
// layer's Set supplies one. Safe on a nil store.
func (s *Store) SetSessions(src func(emit func(id string, reg *obs.Registry))) {
	if s == nil {
		return
	}
	if src == nil {
		s.col.sessions.Store(nil)
		return
	}
	ss := sessionSource(src)
	s.col.sessions.Store(&ss)
}

func (s *Store) collectLoop(stop <-chan struct{}) {
	t := time.NewTicker(s.opt.CollectInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.CollectNow()
		}
	}
}

// CollectNow snapshots the root registry and every live session
// registry and offers each non-empty delta to the ingest queue — the
// timer's step, exported so callers can force a collection. A no-op
// unless the store runs its collector.
func (s *Store) CollectNow() {
	if !s.collects() {
		return
	}
	s.col.mu.Lock()
	defer s.col.mu.Unlock()
	now := time.Now()
	s.collectSource("", s.opt.Session, s.opt.Reg, now)
	// The source runs under col.mu, so an EndSession cannot retire a
	// session between its enumeration and its diff (which would rebuild
	// its dropped baseline and revive its released series). The
	// scope Set's source takes only its own lock, never held while it
	// calls into the store.
	if src := s.col.sessions.Load(); src != nil {
		seen := map[string]bool{}
		(*src)(func(id string, reg *obs.Registry) {
			if id == "" || reg == nil || seen[id] {
				return
			}
			seen[id] = true
			s.collectSource(id, id, reg, now)
		})
	}
}

// collectSource diffs one registry against its baseline and offers the
// delta, advancing the baseline only when the offer is accepted.
// Caller holds col.mu.
func (s *Store) collectSource(key, session string, reg *obs.Registry, now time.Time) {
	snap := reg.Snapshot()
	base := s.col.base[key]
	if base == nil {
		base = newBaseline()
		s.col.base[key] = base
	}
	if b := diffSnapshot(base, snap, session, now); !b.empty() && s.Offer(b) {
		advanceBaseline(base, snap)
	}
}

// EndSession retires a departing session: it collects the session's
// tail from reg (when the store runs its collector) and queues it with
// the session's release, so the release happens after the tail is
// applied. If the queue is full the tail is dropped, counted like any
// other drop, and the session is released at once. The scope layer
// calls this when a session scope is removed, evicted or closed with
// its set. Safe on a nil store.
func (s *Store) EndSession(id string, reg *obs.Registry) {
	if s == nil || id == "" {
		return
	}
	s.col.mu.Lock()
	defer s.col.mu.Unlock()
	now := time.Now()
	b := Batch{Session: id, UnixMs: now.UnixMilli()}
	if s.collects() && reg != nil {
		base := s.col.base[id]
		if base == nil {
			base = newBaseline() // never collected: the tail is everything
		}
		b = diffSnapshot(base, reg.Snapshot(), id, now)
		delete(s.col.base, id)
	}
	b.release = true
	if !s.Offer(b) {
		s.ReleaseSession(id)
	}
}

// diffSnapshot builds the delta batch of snap against base: counter,
// histogram and span increments, and the gauges that changed since the
// last advance (all of them on first contact). It does not touch base;
// the caller advances it once the batch is accepted.
func diffSnapshot(base *baseline, snap obs.Snapshot, session string, now time.Time) Batch {
	b := Batch{Session: session, UnixMs: now.UnixMilli()}
	for name, v := range snap.Counters {
		if d := v - base.counters[name]; d != 0 {
			if b.Counters == nil {
				b.Counters = map[string]int64{}
			}
			b.Counters[name] = d
		}
	}
	for name, v := range snap.Gauges {
		prev, had := base.gauges[name]
		if !base.seen || !had || prev != v {
			if b.Gauges == nil {
				b.Gauges = map[string]float64{}
			}
			b.Gauges[name] = v
		}
	}
	for name, h := range snap.Histograms {
		prev := base.hists[name]
		if d := (HistDelta{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}); d.Count != 0 {
			if b.Histograms == nil {
				b.Histograms = map[string]HistDelta{}
			}
			b.Histograms[name] = d
		}
	}
	for name, sp := range snap.Spans {
		prev := base.spans[name]
		if d := (SpanDelta{Count: sp.Count - prev.Count, TotalSeconds: sp.TotalSeconds - prev.TotalSeconds}); d.Count != 0 {
			if b.Spans == nil {
				b.Spans = map[string]SpanDelta{}
			}
			b.Spans[name] = d
		}
	}
	return b
}

// advanceBaseline moves a source's baseline to snap.
func advanceBaseline(base *baseline, snap obs.Snapshot) {
	for name, v := range snap.Counters {
		base.counters[name] = v
	}
	for name, v := range snap.Gauges {
		base.gauges[name] = v
	}
	for name, h := range snap.Histograms {
		base.hists[name] = HistDelta{Count: h.Count, Sum: h.Sum}
	}
	for name, sp := range snap.Spans {
		base.spans[name] = SpanDelta{Count: sp.Count, TotalSeconds: sp.TotalSeconds}
	}
	base.seen = true
}
