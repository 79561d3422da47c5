// Package scope makes telemetry a per-session object. A Scope bundles
// the observability components a producer reports through — metrics
// registry, logger, channel-health monitor, flight recorder, phase-cost
// accounting, and loop tracer — behind one pointer. The one-shot
// binaries get their process-wide stack this way: CLI turns the shared
// telemetry flags into the root Scope. A multi-room run gets one scope
// per room from a Set: a child registry plus an optional flight log.
//
// Scoped metrics roll up hierarchically: a room's registry is a child
// of the process registry (obs.NewRegistryWithParent), so every write
// through a room's scope also lands in the process-wide totals, and the
// process /metrics exposition stays the roll-up of all sessions.
// Per-session expositions (with a `session` label) are served by the
// routes Set.RegisterRoutes adds to the telemetry server.
//
// The disabled path keeps the repository's nil-safe convention: every
// accessor on a nil *Scope returns the nil form of its component, so
// producer code holds one scope pointer unconditionally and pays a
// pointer check when telemetry is off (bench-enforced at 0 allocs/op).
package scope

import (
	"sync"

	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/prof"
	"press/internal/obs/slo"
	"press/internal/obs/tsdb"
	"press/internal/stats"
)

// Scope is one session's telemetry: registry, logger, health monitor,
// flight recorder, phase-cost collector and loop tracer, any of them
// nil. All methods are safe on a nil scope.
type Scope struct {
	id  string
	reg *obs.Registry
	log *obs.Logger
	mon *health.Monitor
	fl  *flight.Recorder
	pc  *prof.Collector
	tr  *slo.Tracer
	srv *obs.Server
	ts  *tsdb.Store

	// owned scopes were opened by a Set, which closes their flight log
	// through Close; adopted ones (Adopt, or the root scope CLI.Start
	// returns) belong to an owner that stops them itself.
	owned bool

	closeOnce sync.Once
	closeErr  error
}

// Adopt wraps already-running, externally owned telemetry components as
// a scope, so they reach the producer layers through the same *Scope
// parameter a daemon would use per session (pressctl replay adopts the
// regenerated run's recorder this way). Closing an adopted scope stops
// nothing: the owner does.
func Adopt(id string, reg *obs.Registry, log *obs.Logger, mon *health.Monitor, fl *flight.Recorder, pc *prof.Collector) *Scope {
	return &Scope{id: id, reg: reg, log: log, mon: mon, fl: fl, pc: pc}
}

// WithTracer attaches a control-loop deadline tracer to the scope.
// Returns s; a no-op on a nil scope.
func (s *Scope) WithTracer(t *slo.Tracer) *Scope {
	if s != nil {
		s.tr = t
	}
	return s
}

// Tracer returns the scope's control-loop deadline tracer (nil is valid
// and disabled).
func (s *Scope) Tracer() *slo.Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// TSDB returns the metrics-history store behind the scope's stack, or
// nil when durable history is off (or on a nil scope).
func (s *Scope) TSDB() *tsdb.Store {
	if s == nil {
		return nil
	}
	return s.ts
}

// WithServer records the live telemetry server this scope's stack
// serves on, so harnesses holding the scope can expose routes there
// (RunConcurrent registers its ScopeSet's /sessions routes on it).
// Returns s; a no-op on a nil scope.
func (s *Scope) WithServer(srv *obs.Server) *Scope {
	if s != nil {
		s.srv = srv
	}
	return s
}

// Server returns the live telemetry server behind the scope's stack,
// or nil when none is serving (or on a nil scope).
func (s *Scope) Server() *obs.Server {
	if s == nil {
		return nil
	}
	return s.srv
}

// ID returns the session ID ("" on a nil scope).
func (s *Scope) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Registry returns the scope's metrics registry (nil on a nil scope —
// itself a valid, disabled registry).
func (s *Scope) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Logger returns the scope's logger (nil is a valid, disabled logger).
func (s *Scope) Logger() *obs.Logger {
	if s == nil {
		return nil
	}
	return s.log
}

// Health returns the scope's channel-health monitor (nil is valid and
// disabled).
func (s *Scope) Health() *health.Monitor {
	if s == nil {
		return nil
	}
	return s.mon
}

// Flight returns the scope's flight recorder (nil is valid and
// disabled).
func (s *Scope) Flight() *flight.Recorder {
	if s == nil {
		return nil
	}
	return s.fl
}

// Prof returns the scope's phase-cost collector (nil is valid and
// disabled).
func (s *Scope) Prof() *prof.Collector {
	if s == nil {
		return nil
	}
	return s.pc
}

// ObserveCSI fans one successful channel estimate's per-subcarrier SNR
// curve (dB) out to the scope's health monitor and then its flight log.
// No-op on a nil scope; the slice is not retained.
func (s *Scope) ObserveCSI(snrDB []float64) {
	if s == nil {
		return
	}
	s.mon.ObserveSNR(snrDB)
	s.fl.RecordCSI(snrDB)
}

// ObserveCondProfile fans a per-subcarrier MIMO condition-number
// profile (dB) out to the scope's health monitor and, as its median,
// the flight log. No-op on a nil scope or empty profile.
func (s *Scope) ObserveCondProfile(condDB []float64) {
	if s == nil {
		return
	}
	s.mon.ObserveCondProfile(condDB)
	if s.fl != nil && len(condDB) > 0 {
		s.fl.RecordKPI(flight.KPICondDBMedian, stats.Median(condDB))
	}
}

// RecordManifest tags m with the scope's session ID and writes it to
// the scope's flight log. No-op without a flight recorder.
func (s *Scope) RecordManifest(m *flight.Manifest) {
	if s == nil || s.fl == nil || m == nil {
		return
	}
	if s.id != "" {
		m.SetSession(s.id)
	}
	s.fl.RecordManifest(m)
}

// Close closes an owned scope's flight log. Adopted components are left
// running for their owner. Idempotent; safe on a nil scope.
func (s *Scope) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		if s.owned {
			s.closeErr = s.fl.Close()
		}
	})
	return s.closeErr
}
