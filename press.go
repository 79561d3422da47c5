// Package press is a programmable radio environment for smart spaces — a
// faithful, simulation-backed reproduction of "Programmable Radio
// Environments for Smart Spaces" (Welkie, Shangguan, Gummeson, Hu,
// Jamieson; HotNets 2017).
//
// PRESS embeds arrays of low-cost, electronically switched antenna
// elements in the walls of a building and reconfigures indoor multipath
// propagation itself, rather than the endpoints: shifting frequency
// nulls to enhance individual links, improving large-MIMO channel
// conditioning, and partitioning spectrum between neighbouring networks.
//
// The package re-exports the library's public surface:
//
//   - Space: a PRESS-instrumented room — environment, element array, and
//     the links operating inside it, with measure/optimize/apply.
//   - Environment, Node, Blocker: the multipath world (image-method ray
//     tracing, scatterers, Doppler).
//   - Element, Array, Config, State: the switched reflector substrate of
//     the paper's Figure 3.
//   - Radio, Link, MIMOLink: the OFDM measurement pipeline (training-
//     based CSI estimation, per-subcarrier SNR, 2×2 channel matrices).
//   - Objective and Searcher: the control plane's optimization loop with
//     coherence-time budgets.
//   - Agent, Controller: the wire protocol between a controller and the
//     wall-embedded element agents.
//
// A minimal session:
//
//	env := press.NewEnvironment(12, 9, 3)
//	arr := press.NewArray(
//	    press.NewParabolicElement(press.V(6, 3.2, 1.5), press.V(7.3, 4.7, 1.3)),
//	)
//	space, _ := press.NewSpace(env, arr, 42)
//	space.AddLink("ap-client", tx, rx, press.WiFi20())
//	out, _ := space.Optimize(
//	    []press.Goal{{Link: "ap-client", Objective: press.MaxMinSNR{}}},
//	    press.OptimizeOptions{},
//	)
//
// See examples/ for complete programs and internal/experiments for the
// harnesses that regenerate every figure of the paper.
package press

import (
	"net"
	"time"

	"press/internal/cmat"
	"press/internal/control"
	"press/internal/controlplane"
	"press/internal/core"
	"press/internal/element"
	"press/internal/geom"
	"press/internal/mimo"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// Geometry.
type (
	// Vec is a 3-D point or direction in metres.
	Vec = geom.Vec
	// Room is an axis-aligned room.
	Room = geom.Room
	// Blocker is a box obstacle attenuating paths through it.
	Blocker = geom.Blocker
)

// V builds a Vec.
func V(x, y, z float64) Vec { return geom.V(x, y, z) }

// NewBlocker builds a blocker from two opposite corners and a penetration
// loss in dB.
func NewBlocker(a, b Vec, attenuationDB float64) Blocker {
	return geom.NewBlocker(a, b, attenuationDB)
}

// Propagation.
type (
	// Environment is the radio environment PRESS does not control: room,
	// wall materials, blockers, ambient scatterers.
	Environment = propagation.Environment
	// Node is a radio endpoint's antenna: position, pattern, velocity.
	Node = propagation.Node
	// Scatterer is a point scatterer contributing one extra path.
	Scatterer = propagation.Scatterer
	// Path is one propagation path: complex gain, delay, angles, Doppler.
	Path = propagation.Path
	// Material is a wall surface description.
	Material = propagation.Material
)

// NewEnvironment returns a room of the given dimensions (metres) with
// default wall materials and second-order ray tracing.
func NewEnvironment(x, y, z float64) *Environment {
	return propagation.NewEnvironment(x, y, z)
}

// TracePaths generates the multipath set between two nodes at wavelength
// lambdaM.
func TracePaths(env *Environment, tx, rx Node, lambdaM float64) []Path {
	return propagation.TracePaths(env, tx, rx, lambdaM)
}

// Antennas.
type (
	// Pattern is an antenna gain pattern.
	Pattern = rfphys.Pattern
	// Isotropic, Omni, Parabolic, LogPeriodic are the built-in patterns.
	Isotropic   = rfphys.Isotropic
	Omni        = rfphys.Omni
	Parabolic   = rfphys.Parabolic
	LogPeriodic = rfphys.LogPeriodic
)

// Wavelength returns the free-space wavelength of a carrier frequency.
func Wavelength(freqHz float64) float64 { return rfphys.Wavelength(freqHz) }

// DBToLinear converts a power ratio in dB to linear.
func DBToLinear(db float64) float64 { return rfphys.DBToLinear(db) }

// LinearToDB converts a linear power ratio to dB.
func LinearToDB(lin float64) float64 { return rfphys.LinearToDB(lin) }

// DBmToWatts converts dBm to watts.
func DBmToWatts(dbm float64) float64 { return rfphys.DBmToWatts(dbm) }

// ThermalNoiseWatts returns the receiver noise floor k·T·B scaled by a
// noise figure in dB.
func ThermalNoiseWatts(bwHz, noiseFigureDB float64) float64 {
	return rfphys.ThermalNoiseWatts(bwHz, noiseFigureDB)
}

// CoherenceTime returns the channel coherence time in seconds for a
// maximum Doppler shift (Tc = 9/(16π·fd)).
func CoherenceTime(dopplerHz float64) float64 { return rfphys.CoherenceTime(dopplerHz) }

// DefaultCarrierHz is Wi-Fi channel 11 (2.462 GHz), the prototype's
// carrier — the default frequency for the coherence-budget math in the
// CLIs and examples.
const DefaultCarrierHz = 2.462e9

// Elements.
type (
	// Element is one PRESS element (Figure 3 of the paper).
	Element = element.Element
	// Array is an ordered, jointly controlled set of elements.
	Array = element.Array
	// Config selects one switch state per element.
	Config = element.Config
	// State is one selectable reflection state.
	State = element.State
	// PlacementSpec generates element positions around a link.
	PlacementSpec = element.PlacementSpec
)

// Element constructors and state banks.
var (
	// DefaultPlacement is the paper's 1–2 m placement grid.
	DefaultPlacement = element.DefaultPlacement
)

// NewArray builds an array over elements.
func NewArray(elems ...*Element) *Array { return element.NewArray(elems...) }

// NewParabolicElement builds the paper's prototype element: a 14 dBi grid
// parabolic aimed at `aim` behind the SP4T stub bank.
func NewParabolicElement(pos, aim Vec) *Element { return element.NewParabolicElement(pos, aim) }

// NewOmniElement builds the omnidirectional element variant.
func NewOmniElement(pos Vec) *Element { return element.NewOmniElement(pos) }

// NewActiveElement builds an active re-radiating element with the given
// gain — the design point line-of-sight links need (§2, §3).
func NewActiveElement(pos Vec, gainDB float64) *Element {
	return element.NewActiveElement(pos, gainDB)
}

// SP4TStates returns the paper's prototype switch bank: phases 0, π/2, π
// plus the absorptive load.
func SP4TStates() []State { return element.SP4TStates() }

// FourPhaseStates returns the §3.2.2 bank: four phases, no absorber.
func FourPhaseStates() []State { return element.FourPhaseStates() }

// NPhaseStates returns n evenly spaced phases, optionally with "off".
func NPhaseStates(n int, includeOff bool) []State { return element.NPhaseStates(n, includeOff) }

// ParseState parses the paper's notation ("0.5π", "T") into a State.
func ParseState(s string) (State, error) { return element.ParseState(s) }

// Element failures (§2 operational challenges).
type (
	// Fault is one element's failure mode.
	Fault = element.Fault
	// Faults maps element index → failure.
	Faults = element.Faults
	// FaultKind classifies failures.
	FaultKind = element.FaultKind
)

// Failure kinds: a switch jammed in one state, or a dead element.
const (
	StuckAt = element.StuckAt
	Dead    = element.Dead
)

// Modulation is a payload constellation for BER experiments.
type Modulation = ofdm.Modulation

// Supported constellations.
const (
	BPSK  = ofdm.BPSK
	QPSK  = ofdm.QPSK
	QAM16 = ofdm.QAM16
	QAM64 = ofdm.QAM64
)

// OFDM and measurement.
type (
	// Grid is an OFDM subcarrier layout.
	Grid = ofdm.Grid
	// CSI is a measured channel estimate with per-subcarrier SNR.
	CSI = ofdm.CSI
	// Radio is one simulated SDR endpoint.
	Radio = radio.Radio
	// Link is a measurable TX→RX link through an environment and array.
	Link = radio.Link
	// MIMOLink is the multi-antenna variant.
	MIMOLink = radio.MIMOLink
	// Measurement is one configuration's CSI within a sweep.
	Measurement = radio.Measurement
	// Timing models measurement and actuation latency.
	Timing = radio.Timing
	// Channel is a frequency-selective MIMO channel.
	Channel = mimo.Channel
)

// PrototypeTiming reproduces the paper's ~5 s / 64-configuration testbed.
var PrototypeTiming = radio.PrototypeTiming

// WiFi20 returns the paper's 64-subcarrier/20 MHz Wi-Fi-like grid on
// channel 11 (2.462 GHz).
func WiFi20() Grid { return ofdm.WiFi20() }

// USRP102 returns the §3.2.2 102-subcarrier USRP grid.
func USRP102() Grid { return ofdm.USRP102() }

// NewLink wires a measurable link; see radio.NewLink.
func NewLink(env *Environment, tx, rx *Radio, grid Grid, arr *Array, seed uint64) (*Link, error) {
	return radio.NewLink(env, tx, rx, grid, arr, seed)
}

// NewMIMOLink wires a multi-antenna link; see radio.NewMIMOLink.
func NewMIMOLink(env *Environment, txAnts, rxAnts []Node, grid Grid, arr *Array, seed uint64) (*MIMOLink, error) {
	return radio.NewMIMOLink(env, txAnts, rxAnts, grid, arr, seed)
}

// ThroughputMbps estimates MCS-ladder throughput for a per-subcarrier SNR
// vector on a grid.
func ThroughputMbps(g Grid, snrDB []float64) float64 { return ofdm.ThroughputMbps(g, snrDB) }

// Matrix aliases the dense complex matrix used by the MIMO analysis.
type Matrix = cmat.Matrix

// CondNumberDB returns a channel matrix's condition number in dB.
func CondNumberDB(m *Matrix) float64 { return mimo.CondNumberDB(m) }

// CapacityBpsHz returns the equal-power MIMO Shannon capacity of one
// channel matrix at a linear SNR.
func CapacityBpsHz(m *Matrix, snrLinear float64) float64 { return mimo.CapacityBpsHz(m, snrLinear) }

// ZFSumRateBpsHz returns the zero-forcing sum rate of one channel matrix
// at a linear SNR — the conventional MIMO receiver whose throughput
// collapses on ill-conditioned channels (§1).
func ZFSumRateBpsHz(m *Matrix, snrLinear float64) float64 { return mimo.ZFSumRateBpsHz(m, snrLinear) }

// Control.
type (
	// Objective scores a measured CSI (higher is better).
	Objective = control.Objective
	// Searcher explores the configuration space under a budget.
	Searcher = control.Searcher
	// Result is a search outcome.
	Result = control.Result
	// EvalFunc measures one configuration.
	EvalFunc = control.EvalFunc

	// Built-in objectives.
	MaxMinSNR        = control.MaxMinSNR
	MaxMeanSNR       = control.MaxMeanSNR
	Flatness         = control.Flatness
	Throughput       = control.Throughput
	BoostSubcarrier  = control.BoostSubcarrier
	HalfBandContrast = control.HalfBandContrast

	// Built-in searchers.
	Exhaustive   = control.Exhaustive
	Greedy       = control.Greedy
	HillClimb    = control.HillClimb
	Anneal       = control.Anneal
	Genetic      = control.Genetic
	RandomWalk   = control.Random
	Hierarchical = control.Hierarchical

	// Continuous-phase control (§4.1 "continuously-variable phase
	// shifting hardware").
	ContinuousConfig   = element.ContinuousConfig
	ContinuousEvalFunc = control.ContinuousEvalFunc
	ContinuousResult   = control.ContinuousResult
	SPSA               = control.SPSA
)

// Off is the continuous-phase sentinel terminating an element.
var Off = element.Off

// ErrBudgetExhausted reports a search stopped by its measurement budget.
var ErrBudgetExhausted = control.ErrBudgetExhausted

// CoherenceBudget converts a coherence time and per-measurement cost into
// a measurement budget (§2).
func CoherenceBudget(coherence time.Duration, timing Timing) int {
	return control.CoherenceBudget(coherence, timing)
}

// CoherenceBudgetAtSpeed is CoherenceBudget for an endpoint speed in mph.
func CoherenceBudgetAtSpeed(speedMph, fcHz float64, timing Timing) int {
	return control.CoherenceBudgetAtSpeed(speedMph, fcHz, timing)
}

// CoherenceTimeAtSpeed returns the channel coherence time — the per-loop
// control deadline of §2 — for an endpoint speed in mph at carrier fcHz
// (0 = effectively static, no deadline).
func CoherenceTimeAtSpeed(speedMph, fcHz float64) time.Duration {
	return control.CoherenceTimeAtSpeed(speedMph, fcHz)
}

// System orchestration.
type (
	// Space is a PRESS-instrumented smart space.
	Space = core.Space
	// Goal binds a link to an objective for (joint) optimization.
	Goal = core.Goal
	// OptimizeOptions configures Space.Optimize.
	OptimizeOptions = core.OptimizeOptions
	// Outcome reports an optimization run.
	Outcome = core.Outcome
)

// NewSpace builds a space over an environment and array.
func NewSpace(env *Environment, arr *Array, seed uint64) (*Space, error) {
	return core.NewSpace(env, arr, seed)
}

// Control plane.
type (
	// Agent is the element-side protocol endpoint.
	Agent = controlplane.Agent
	// Controller is the controller-side protocol endpoint.
	Controller = controlplane.Controller
	// Conn is a message-oriented control-plane connection.
	Conn = controlplane.Conn
	// LossyConfig parameterizes the simulated lossy control channel.
	LossyConfig = controlplane.LossyConfig
)

// NewAgent builds an element agent over an array.
func NewAgent(id uint32, arr *Array) *Agent { return controlplane.NewAgent(id, arr) }

// NewController wraps a control-plane connection.
func NewController(conn Conn) *Controller { return controlplane.NewController(conn) }

// MultiController drives several element agents (wall segments) as one
// logical array.
type MultiController = controlplane.MultiController

// NewMultiController composes handshaked controllers into one logical
// array controller.
func NewMultiController(ctrls ...*Controller) (*MultiController, error) {
	return controlplane.NewMultiController(ctrls...)
}

// NewPacketConn adapts a net.PacketConn (UDP) into a control-plane
// connection toward one agent.
func NewPacketConn(pc net.PacketConn, peer net.Addr) Conn {
	return controlplane.NewPacketConn(pc, peer)
}

// SINRdB computes per-subcarrier signal-to-interference-plus-noise for a
// link with co-channel interferers measured at the same receiver.
func SINRdB(signal *CSI, interferers []*CSI) ([]float64, error) {
	return ofdm.SINRdB(signal, interferers)
}

// NewLossyPipe returns both ends of a simulated lossy control channel.
func NewLossyPipe(cfg LossyConfig) (Conn, Conn) { return controlplane.NewLossyPipe(cfg) }

// NewStreamConn adapts a net.Conn (TCP, unix socket, net.Pipe) into a
// control-plane connection.
func NewStreamConn(c net.Conn) Conn { return controlplane.NewStreamConn(c) }

// Telemetry. Every instrumented type in the library (Link, MIMOLink,
// Environment, Controller, Agent) carries an optional *Registry; a nil
// registry is the zero-cost disabled default.
type (
	// Registry is a concurrency-safe registry of counters, gauges, and
	// histograms with JSON and Prometheus-text exposition.
	Registry = obs.Registry
	// Span times one named phase into a registry.
	Span = obs.Span
	// TelemetryCLI is the shared telemetry command line: Register installs
	// its 20 flags, Start validates them all, brings up the configured
	// stack (metrics snapshot and live server, trace and pprof files,
	// logging, channel health, flight recorder, runtime sampler, phase
	// accounting, loop tracer, metrics history), and returns it as the
	// process's root TelemetryScope, and Finish tears it down and writes
	// the requested outputs.
	TelemetryCLI = scope.CLI
	// TelemetryScope bundles one session's registry, logger, health
	// monitor, flight recorder, phase collector, and loop tracer behind a
	// single nil-safe handle; scoped metrics roll up into the parent
	// registry.
	TelemetryScope = scope.Scope
	// ProfCollector accumulates phase-scoped work accounting (wall time,
	// calls, bytes, domain counters per named phase). A nil collector is
	// the zero-cost disabled default.
	ProfCollector = prof.Collector
	// FlightManifest identifies one recorded run: seeds, parameters,
	// and build provenance.
	FlightManifest = flight.Manifest
)

// StartSpan starts a named timing span; End() records its duration in
// the registry. A nil registry yields an inert span.
func StartSpan(r *Registry, name string) Span { return obs.StartSpan(r, name) }

// InstrumentSearcher wraps a searcher with every sink the telemetry
// scope carries: evaluation counts, best-objective trajectory and
// wall-time into its registry and logger, best-so-far into its health
// monitor, one search-decision record per evaluation into its flight
// recorder, search_eval phase costs into its collector, and a "search"
// phase span into its loop tracer. A nil (or fully disabled) scope
// returns s unchanged.
func InstrumentSearcher(s Searcher, sc *TelemetryScope) Searcher {
	return control.InstrumentScope(s, sc)
}

// NewFlightManifest starts a run manifest stamped with the current time
// and build provenance; see flight.NewManifest.
func NewFlightManifest(binary, scenario string, seed uint64) *FlightManifest {
	return flight.NewManifest(binary, scenario, seed)
}
