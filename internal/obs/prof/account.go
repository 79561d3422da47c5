// Package prof attributes hot-path cost. It complements the outcome
// metrics of obs/health/perf with a phase-scoped work-accounting
// collector: instrumented counters — exact, near-zero overhead,
// domain-aware denominators like subcarrier evaluations per nanosecond —
// served at /profz, flushed into the flight log, and reduced to a cost
// report by BuildReport. Function-level profiles are -cpuprofile and
// -memprofile with go tool pprof.
//
// Like the rest of the obs stack, everything is nil-disabled: a nil
// *Collector makes Start/Add no-ops costing one pointer check, so the
// physics packages hold one unconditionally.
package prof

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"press/internal/obs/flight"
)

// Phase identifies one named execution phase of the simulation pipeline.
// The set is closed on purpose: a fixed array of counters is what keeps
// Span.End at a handful of atomic adds with no map lookups.
type Phase uint8

// The phases. Sweep and Search are roots — top-level units of work whose
// wall clock the leaf phases (trace, channel-sum, frame-synth, estimate,
// solve, actuate) decompose. Roots additionally account heap bytes
// allocated while open; leaves skip that because a runtime/metrics read
// (which flushes per-P allocation caches) would dwarf a ~50µs leaf.
const (
	// PhaseSweep covers one full configuration sweep (radio.Link.Sweep).
	PhaseSweep Phase = iota
	// PhaseSearch covers one searcher objective evaluation
	// (the control.InstrumentScope eval loop).
	PhaseSearch
	// PhaseTrace covers image-method path enumeration
	// (propagation.TracePaths and per-config element-path enumeration).
	PhaseTrace
	// PhaseChannelSum covers per-subcarrier response summation
	// (propagation.Response over a frequency grid).
	PhaseChannelSum
	// PhaseFrameSynth covers sounding-frame synthesis: per-symbol noise
	// generation in radio.Link.synthesize.
	PhaseFrameSynth
	// PhaseEstimate covers receiver-side CSI estimation (ofdm.Estimate).
	PhaseEstimate
	// PhaseSolve covers MIMO linear algebra: channel-matrix assembly and
	// singular-value computation (mimo + cmat).
	PhaseSolve
	// PhaseActuate covers control-plane configuration pushes
	// (controlplane.Controller.SetConfig round trips).
	PhaseActuate
	// NumPhases sizes per-phase arrays; not a phase.
	NumPhases
)

// maxAux is the per-phase auxiliary counter slot count.
const maxAux = 3

// Auxiliary counter slots, per phase. Slot constants share a namespace
// with their phase: passing AuxPathsKept to a PhaseChannelSum span is a
// caller bug the API keeps cheap rather than impossible.
const (
	// AuxConfigs (PhaseSweep): configurations measured.
	AuxConfigs = 0
	// AuxConfigsScored (PhaseSearch): configurations scored by the searcher.
	AuxConfigsScored = 0
	// AuxImages (PhaseTrace): image-source candidates enumerated.
	AuxImages = 0
	// AuxPathsKept (PhaseTrace): paths that survived culling.
	AuxPathsKept = 1
	// AuxPathsCulled (PhaseTrace): candidates rejected (blocked, too weak,
	// or geometrically invalid).
	AuxPathsCulled = 2
	// AuxSubcarrierEvals (PhaseChannelSum): subcarrier response evaluations.
	AuxSubcarrierEvals = 0
	// AuxPathTerms (PhaseChannelSum): path·subcarrier product terms summed.
	AuxPathTerms = 1
	// AuxSymbols (PhaseFrameSynth): training symbols synthesized.
	AuxSymbols = 0
	// AuxSubcarriers (PhaseEstimate): subcarriers estimated.
	AuxSubcarriers = 0
	// AuxSolves (PhaseSolve): matrix problems solved.
	AuxSolves = 0
	// AuxFlops (PhaseSolve): estimated complex floating-point operations.
	AuxFlops = 1
	// AuxActuations (PhaseActuate): configurations pushed to the array.
	AuxActuations = 0
)

var phaseNames = [NumPhases]string{
	PhaseSweep:      "sweep",
	PhaseSearch:     "search_eval",
	PhaseTrace:      "path_trace",
	PhaseChannelSum: "channel_sum",
	PhaseFrameSynth: "frame_synth",
	PhaseEstimate:   "estimate",
	PhaseSolve:      "solve",
	PhaseActuate:    "actuate",
}

var phaseRoot = [NumPhases]bool{
	PhaseSweep:  true,
	PhaseSearch: true,
}

var auxNames = [NumPhases][maxAux]string{
	PhaseSweep:      {"configs"},
	PhaseSearch:     {"configs_scored"},
	PhaseTrace:      {"images_enumerated", "paths_kept", "paths_culled"},
	PhaseChannelSum: {"subcarrier_evals", "path_terms"},
	PhaseFrameSynth: {"symbols"},
	PhaseEstimate:   {"subcarriers"},
	PhaseSolve:      {"solves", "flops"},
	PhaseActuate:    {"actuations"},
}

// Name returns the phase's wire name (the flight.PhaseCost.Phase value).
func (p Phase) Name() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Root reports whether the phase is a top-level unit of work whose wall
// clock the leaf phases decompose.
func (p Phase) Root() bool { return p < NumPhases && phaseRoot[p] }

// PhaseByName maps a wire name back to its Phase; ok is false for
// unknown names (e.g. a run log written by a newer binary).
func PhaseByName(name string) (Phase, bool) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseNames[p] == name {
			return p, true
		}
	}
	return NumPhases, false
}

// RootPhaseName reports whether a wire-format phase name names a root
// phase. Unknown names are treated as leaves.
func RootPhaseName(name string) bool {
	p, ok := PhaseByName(name)
	return ok && p.Root()
}

// phaseCounters is one phase's accumulator set. All fields are cumulative
// since the collector was created.
type phaseCounters struct {
	ns    atomic.Int64
	calls atomic.Int64
	bytes atomic.Int64
	aux   [maxAux]atomic.Int64
	// pad spaces adjacent phases onto different cache lines so concurrent
	// sweeps don't false-share.
	_ [64 - (3+maxAux)*8%64]byte
}

// metricAllocBytes is the cumulative heap-allocation counter root-phase
// spans difference. Process-wide: concurrent allocators inflate it, a
// caveat DESIGN.md records.
const metricAllocBytes = "/gc/heap/allocs:bytes"

// Collector accumulates per-phase work counters. Create one with
// NewCollector; share it freely — all methods are safe for concurrent
// use, and all methods on a nil *Collector are no-ops.
type Collector struct {
	phases [NumPhases]phaseCounters

	// memBuf is the preallocated runtime/metrics read buffer, guarded by
	// memBusy so concurrent root spans never share it; the loser simply
	// skips byte accounting for that span.
	memBusy  atomic.Bool
	memBuf   []metrics.Sample
	memOK    bool
	startMon time.Time
}

// NewCollector returns an empty collector and probes once whether the
// runtime exposes the allocation-bytes metric.
func NewCollector() *Collector {
	c := &Collector{
		memBuf:   make([]metrics.Sample, 1),
		startMon: time.Now(),
	}
	c.memBuf[0].Name = metricAllocBytes
	metrics.Read(c.memBuf)
	c.memOK = c.memBuf[0].Value.Kind() == metrics.KindUint64
	return c
}

// readAllocBytes returns the cumulative heap-allocation byte counter, or
// ok=false when the metric is unavailable or the buffer is busy.
func (c *Collector) readAllocBytes() (uint64, bool) {
	if !c.memOK || !c.memBusy.CompareAndSwap(false, true) {
		return 0, false
	}
	metrics.Read(c.memBuf)
	v := c.memBuf[0].Value.Uint64()
	c.memBusy.Store(false)
	return v, true
}

// Span is one open phase measurement. It is a value — Start and End on
// the hot path allocate nothing.
type Span struct {
	c          *Collector
	start      time.Time
	startBytes uint64
	phase      Phase
	bytesOK    bool
}

// Start opens a span on phase p. On a nil collector it returns an inert
// span after a single pointer check.
func (c *Collector) Start(p Phase) Span {
	if c == nil {
		return Span{}
	}
	s := Span{c: c, phase: p, start: time.Now()}
	if phaseRoot[p] {
		s.startBytes, s.bytesOK = c.readAllocBytes()
	}
	return s
}

// End closes the span, folding its duration (and, for root phases, its
// allocation delta) into the collector. Safe on an inert span.
func (s Span) End() {
	if s.c == nil {
		return
	}
	pc := &s.c.phases[s.phase]
	pc.ns.Add(int64(time.Since(s.start)))
	pc.calls.Add(1)
	if s.bytesOK {
		if b, ok := s.c.readAllocBytes(); ok && b >= s.startBytes {
			pc.bytes.Add(int64(b - s.startBytes))
		}
	}
}

// Add folds n into phase p's auxiliary counter slot. Nil-safe; slot must
// be < maxAux.
func (c *Collector) Add(p Phase, slot int, n int64) {
	if c == nil || n == 0 {
		return
	}
	c.phases[p].aux[slot].Add(n)
}

// Snapshot returns the cumulative totals of every phase that has
// recorded work, in phase order, as wire-format records (UnixNs left
// zero for the recorder to stamp). Nil-safe.
func (c *Collector) Snapshot() []flight.PhaseCost {
	if c == nil {
		return nil
	}
	out := make([]flight.PhaseCost, 0, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		pc := &c.phases[p]
		ns, calls := pc.ns.Load(), pc.calls.Load()
		if ns == 0 && calls == 0 {
			continue
		}
		cost := flight.PhaseCost{Phase: p.Name(), Ns: ns, Calls: calls, Bytes: pc.bytes.Load()}
		for slot, name := range auxNames[p] {
			if name == "" {
				continue
			}
			if v := pc.aux[slot].Load(); v != 0 {
				cost.Aux = append(cost.Aux, flight.AuxCount{Name: name, Value: v})
			}
		}
		out = append(out, cost)
	}
	return out
}

// Uptime returns how long the collector has been running — the wall
// clock phase shares are computed against when no root phase ran.
func (c *Collector) Uptime() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.startMon)
}
