package experiments

import (
	"sync/atomic"

	"press/internal/control"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// currentScope is the ambient telemetry scope for harnesses that are
// not handed one explicitly. The one-shot CLIs install the root scope
// their telemetry flags built; session-oriented callers (the
// concurrent experiment, the future pressd daemon) pass per-session
// scopes through scenario parameters instead and leave this alone.
var currentScope atomic.Pointer[scope.Scope]

// SetScope installs the ambient telemetry scope for every harness in
// this package: scenario Builds attach its registry, health monitor,
// flight recorder, and phase collector to the links and environments
// they create, and search call sites wrap their searchers with
// control.InstrumentScope. Pass nil to clear.
//
// An ambient scope (rather than per-harness parameters) keeps the
// dozens of Run* signatures stable; harnesses that need per-session
// telemetry take an explicit *scope.Scope via their scenario instead.
func SetScope(s *scope.Scope) { currentScope.Store(s) }

// CurrentScope returns the ambient scope, nil when telemetry is off
// (every accessor on a nil scope is a valid disabled sink).
func CurrentScope() *scope.Scope { return currentScope.Load() }

// obsRegistry returns the ambient registry, or nil when telemetry is
// off — safe to assign to Link.Obs / Environment.Obs either way.
func obsRegistry() *obs.Registry { return CurrentScope().Registry() }

// profC returns the ambient work-accounting collector, or nil (every
// consumer is nil-safe).
func profC() *prof.Collector { return CurrentScope().Prof() }

// instrument wraps s with the ambient scope's observer, health monitor,
// flight recorder, and work-accounting collector; with all of them off
// it returns s unchanged.
func instrument(s control.Searcher) control.Searcher {
	return control.InstrumentScope(s, CurrentScope())
}

// observeCondProfile fans a per-subcarrier condition-number profile (dB)
// out to the ambient scope's health monitor and, as its median, the
// flight log.
func observeCondProfile(condDB []float64) { CurrentScope().ObserveCondProfile(condDB) }
