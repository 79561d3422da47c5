package scope

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"press/internal/obs"
	"press/internal/obs/names"
	"press/internal/obs/tsdb"
)

// DefaultMaxScopes bounds the number of live scopes (hence the
// cardinality of the `session` label and the per-scope memory) when the
// Set is built with cap ≤ 0.
const DefaultMaxScopes = 1024

// Metric names the Set maintains in the parent (process) registry —
// spellings owned by internal/obs/names.
const (
	CounterScopesOpened  = names.SessionsOpened
	CounterScopesEvicted = names.SessionsEvicted
	GaugeScopesActive    = names.SessionsActive
)

// Set is the process-level directory of live scopes: bounded
// cardinality with LRU eviction, a metrics budget the daemon arc can
// rely on. All methods are safe for concurrent use.
type Set struct {
	parent *obs.Registry
	srv    *obs.Server // optional: session events publish here
	cap    int

	opened  *obs.Counter
	evicted *obs.Counter
	active  *obs.Gauge

	mu     sync.Mutex
	seq    uint64
	scopes map[string]*entry
	ts     *tsdb.Store
}

type entry struct {
	scope   *Scope
	created time.Time
	lastUse uint64 // Set.seq stamp; smallest = least recently used
}

// NewSet builds a scope directory parented on parent (nil: scopes
// observe standalone) holding at most cap scopes (≤ 0:
// DefaultMaxScopes). Opening past the cap evicts the least recently
// used scope, closing it and counting the eviction in the parent
// registry.
func NewSet(parent *obs.Registry, cap int) *Set {
	if cap <= 0 {
		cap = DefaultMaxScopes
	}
	return &Set{
		parent:  parent,
		cap:     cap,
		opened:  parent.Counter(CounterScopesOpened),
		evicted: parent.Counter(CounterScopesEvicted),
		active:  parent.Gauge(GaugeScopesActive),
		scopes:  map[string]*entry{},
	}
}

// AttachServer points session telemetry at a live server: health events
// from scopes opened after this call publish as session-tagged SSE
// events, and RegisterRoutes' resolver work. Call before Open.
func (t *Set) AttachServer(srv *obs.Server) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.srv = srv
	t.mu.Unlock()
}

// AttachTSDB makes the set the metrics-history store's session source:
// each store collection takes one session-labeled delta per live scope.
// When a scope is removed, LRU-evicted or closed with the set, the
// store collects its telemetry tail and then releases its per-session
// series budget (tsdb.Store.EndSession), so a churning daemon cannot
// exhaust the store's session cardinality budget with dead sessions.
// A nil set or store is a no-op.
func (t *Set) AttachTSDB(ts *tsdb.Store) {
	if t == nil || ts == nil {
		return
	}
	t.mu.Lock()
	t.ts = ts
	t.mu.Unlock()
	ts.SetSessions(t.ForEachRegistry)
}

// ForEachRegistry calls emit once per live scope with its session ID
// and registry, in no particular order — the session-source shape
// tsdb.Store.SetSessions takes. LRU order is not affected.
func (t *Set) ForEachRegistry(emit func(id string, reg *obs.Registry)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	type item struct {
		id  string
		reg *obs.Registry
	}
	items := make([]item, 0, len(t.scopes))
	for id, e := range t.scopes {
		items = append(items, item{id, e.scope.reg})
	}
	t.mu.Unlock()
	for _, it := range items {
		emit(it.id, it.reg)
	}
}

// Cap returns the scope cap.
func (t *Set) Cap() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// Open creates, registers, and starts a new owned scope. A duplicate ID
// is an error (Get the existing scope instead). When the set is full
// the least recently used scope is closed and evicted first.
func (t *Set) Open(id string, cfg Config) (*Scope, error) {
	if t == nil {
		return nil, fmt.Errorf("scope: nil set")
	}
	if id == "" {
		return nil, fmt.Errorf("scope: empty session id")
	}
	s, err := New(id, t.parent, cfg)
	if err != nil {
		return nil, err
	}

	t.mu.Lock()
	if _, dup := t.scopes[id]; dup {
		t.mu.Unlock()
		closeDiscard(s)
		return nil, fmt.Errorf("scope: session %q already open", id)
	}
	type victimEntry struct {
		id    string
		scope *Scope
	}
	var evict []victimEntry
	for len(t.scopes) >= t.cap {
		victim := t.lruLocked()
		if victim == "" {
			break
		}
		evict = append(evict, victimEntry{victim, t.scopes[victim].scope})
		delete(t.scopes, victim)
	}
	t.seq++
	t.scopes[id] = &entry{scope: s, created: time.Now(), lastUse: t.seq}
	srv := t.srv
	ts := t.ts
	t.active.Set(float64(len(t.scopes)))
	t.mu.Unlock()

	t.opened.Inc()
	for _, v := range evict {
		t.evicted.Inc()
		_ = v.scope.Close()
		// Collect the evicted session's tail, then free its series
		// budget in the history store; its segments stay on disk until
		// retention expires them.
		ts.EndSession(v.id, v.scope.reg)
	}

	// Wire session-tagged SSE before the monitor's first sample.
	if srv != nil && s.mon != nil {
		sid := id
		s.mon.Notify = func(event string, v any) {
			srv.PublishSession(sid, event, v)
		}
	}
	s.start()
	return s, nil
}

// lruLocked returns the least-recently-used scope ID ("" when empty).
func (t *Set) lruLocked() string {
	var victim string
	var oldest uint64
	for id, e := range t.scopes {
		if victim == "" || e.lastUse < oldest {
			victim, oldest = id, e.lastUse
		}
	}
	return victim
}

// closeDiscard closes a scope that never made it into the set.
func closeDiscard(s *Scope) { _ = s.Close() }

// Get returns the scope for id (nil when unknown) and marks it
// most-recently-used.
func (t *Set) Get(id string) *Scope {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.scopes[id]
	if e == nil {
		return nil
	}
	t.seq++
	e.lastUse = t.seq
	return e.scope
}

// Remove closes and deregisters the scope for id (a deliberate
// teardown, not counted as an eviction). Unknown IDs are a no-op.
func (t *Set) Remove(id string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	e := t.scopes[id]
	delete(t.scopes, id)
	ts := t.ts
	t.active.Set(float64(len(t.scopes)))
	t.mu.Unlock()
	if e == nil {
		return nil
	}
	err := e.scope.Close()
	// Collect the session's tail, then release its in-memory series
	// budget (history on disk lives until retention).
	ts.EndSession(id, e.scope.reg)
	return err
}

// Len returns the number of live scopes.
func (t *Set) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.scopes)
}

// Info describes one live scope in the /sessions listing.
type Info struct {
	ID            string `json:"id"`
	CreatedUnixMs int64  `json:"created_unix_ms"`
	Sampling      bool   `json:"sampling"`
	Health        bool   `json:"health"`
	Flight        bool   `json:"flight"`
	FlightDir     string `json:"flight_dir,omitempty"`
}

// List returns the live scopes sorted by ID.
func (t *Set) List() []Info {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Info, 0, len(t.scopes))
	for id, e := range t.scopes {
		s := e.scope
		out = append(out, Info{
			ID:            id,
			CreatedUnixMs: e.created.UnixMilli(),
			Sampling:      s.rec != nil,
			Health:        s.mon != nil,
			Flight:        s.fl != nil,
			FlightDir:     s.fl.Dir(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close closes every scope and empties the set, ending each session in
// an attached store (its tail collected, then its series released) and
// detaching the set from the store as its session source.
func (t *Set) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	scopes := t.scopes
	t.scopes = map[string]*entry{}
	ts := t.ts
	t.active.Set(0)
	t.mu.Unlock()
	ts.SetSessions(nil)
	var first error
	for id, e := range scopes {
		if err := e.scope.Close(); err != nil && first == nil {
			first = err
		}
		ts.EndSession(id, e.scope.reg)
	}
	return first
}
