// Package flight is the durable flight recorder behind every PRESS
// binary: an append-only, crash-safe run log of everything the control
// loop did — the run manifest (seeds, parameters, build provenance),
// element actuations, CSI/KPI samples, alert transitions, and search
// decisions — plus the decode/summary/diff machinery that turns a log
// back into an auditable, replayable, comparable run.
//
// Where internal/obs and internal/obs/health are live telemetry (they
// die with the process), flight persists: a run recorded today can be
// replayed tomorrow (`pressctl replay`) or diffed against last week
// (`pressctl rundiff`). A run is a directory of size-rotated segment
// files in the framed-log format of internal/obs/seglog, shared with
// internal/obs/tsdb: CRC32C-framed, length-prefixed records whose
// decoder tolerates torn tails (a truncated final record after a crash)
// and resynchronizes past corrupt frames instead of aborting. This
// package holds the record payloads and the group-commit writer.
package flight

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"press/internal/obs/seglog"
)

// FormatVersion is the flight-log format revision stamped into every
// manifest. Bump it when the frame layout or a record's encoding
// changes incompatibly; the decoder skips unknown record kinds, so
// additive changes do not need a bump.
const FormatVersion = 1

// flightLog is the run log's framing: frames start F1 7E, segments are
// seg-NNNNN.flr.
var flightLog = seglog.Format{Magic: [2]byte{0xF1, 0x7E}, Suffix: ".flr"}

// Kind identifies a record's type on the wire.
type Kind uint8

// Record kinds. Values are wire format — never renumber.
const (
	KindManifest  Kind = 1 // run identity: seeds, params, build info
	KindActuation Kind = 2 // one applied element configuration
	KindCSI       Kind = 3 // one measured per-subcarrier SNR curve
	KindKPI       Kind = 4 // one named scalar KPI sample
	KindAlert     Kind = 5 // one alert-rule state transition
	KindDecision  Kind = 6 // one search evaluation
	KindRuntime   Kind = 7 // one periodic Go-runtime health snapshot
	KindPhaseCost Kind = 8 // one cumulative per-phase work-accounting sample
	KindLoop      Kind = 9 // one control-loop iteration vs its coherence deadline
)

// String names a kind for logs and summaries.
func (k Kind) String() string {
	switch k {
	case KindManifest:
		return "manifest"
	case KindActuation:
		return "actuation"
	case KindCSI:
		return "csi"
	case KindKPI:
		return "kpi"
	case KindAlert:
		return "alert"
	case KindDecision:
		return "decision"
	case KindRuntime:
		return "runtime"
	case KindPhaseCost:
		return "phase_cost"
	case KindLoop:
		return "loop"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Param is one manifest key/value pair. Parameters are stored sorted by
// key so the fingerprint is order-independent.
type Param struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Manifest is the first record of every run log: everything needed to
// identify, fingerprint, and re-execute the run.
type Manifest struct {
	FormatVersion uint16 `json:"format_version"`
	RunID         string `json:"run_id"`
	// Binary and Scenario name what produced the run ("pressctl"/"demo",
	// "pressim"/"fig4,fig8"); replay dispatches on them.
	Binary   string `json:"binary"`
	Scenario string `json:"scenario"`
	// Seed is the primary RNG seed; harness-specific seeds and settings
	// live in Params.
	Seed        uint64  `json:"seed"`
	Params      []Param `json:"params,omitempty"`
	Fingerprint uint64  `json:"fingerprint"`
	StartUnixNs int64   `json:"start_unix_ns"`
	// Build provenance, from debug.ReadBuildInfo at record time.
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// SetParams replaces the manifest's parameter list, sorted by key.
func (m *Manifest) SetParams(ps []Param) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
	m.Params = ps
}

// Param returns the named parameter's value and whether it is present.
func (m *Manifest) Param(key string) (string, bool) {
	for _, p := range m.Params {
		if p.Key == key {
			return p.Value, true
		}
	}
	return "", false
}

// SessionParamKey is the manifest parameter that tags a run with the
// telemetry session (room) it belongs to. It rides in Params rather
// than a dedicated manifest field so the binary format (and every
// already-recorded run log) stays valid.
const SessionParamKey = "session"

// SetSession tags the manifest with a session ID, replacing any
// existing tag. Empty id removes the tag.
func (m *Manifest) SetSession(id string) {
	for i, p := range m.Params {
		if p.Key == SessionParamKey {
			if id == "" {
				m.Params = append(m.Params[:i], m.Params[i+1:]...)
			} else {
				m.Params[i].Value = id
			}
			return
		}
	}
	if id == "" {
		return
	}
	m.SetParams(append(m.Params, Param{Key: SessionParamKey, Value: id}))
}

// Session returns the manifest's session tag, "" when untagged.
func (m *Manifest) Session() string {
	v, _ := m.Param(SessionParamKey)
	return v
}

// ComputeFingerprint hashes the run configuration (binary, scenario,
// seed, sorted params — not timestamps or build info) so identically
// configured runs share a fingerprint across hosts and days.
func (m *Manifest) ComputeFingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	write := func(s string) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	write(m.Binary)
	write(m.Scenario)
	binary.LittleEndian.PutUint64(b[:], m.Seed)
	h.Write(b[:])
	for _, p := range m.Params {
		write(p.Key)
		write(p.Value)
	}
	return h.Sum64()
}

// ActuationSource says which side of the control plane stamped an
// actuation record.
type ActuationSource uint8

// Actuation sources.
const (
	SourceController ActuationSource = 0 // controller-side SetConfig
	SourceAgent      ActuationSource = 1 // agent-side successful apply
	SourceReplay     ActuationSource = 2 // regenerated during replay
)

// String names the source.
func (s ActuationSource) String() string {
	switch s {
	case SourceController:
		return "controller"
	case SourceAgent:
		return "agent"
	case SourceReplay:
		return "replay"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Actuation is one applied element configuration.
type Actuation struct {
	UnixNs  int64           `json:"unix_ns"`
	TraceID uint64          `json:"trace_id,omitempty"`
	Source  ActuationSource `json:"source"`
	Config  []int32         `json:"config"`
}

// CSISample is one measured per-subcarrier SNR curve — the KPI stream
// replay verification compares.
type CSISample struct {
	UnixNs int64 `json:"unix_ns"`
	// Seq is the measurement's index within the run, assigned by the
	// recorder; replay aligns streams on it.
	Seq   uint64    `json:"seq"`
	SNRdB []float64 `json:"snr_db"`
}

// KPISample is one named scalar sample (e.g. "cond_db_median").
type KPISample struct {
	UnixNs int64   `json:"unix_ns"`
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
}

// AlertTransition is one alert-rule state change, mirrored from the
// channel-health engine.
type AlertTransition struct {
	UnixNs int64   `json:"unix_ns"`
	Rule   string  `json:"rule"`
	From   uint8   `json:"from"`
	To     uint8   `json:"to"`
	Value  float64 `json:"value"`
}

// RuntimeSample is one periodic Go-runtime health snapshot — the
// GC/heap/scheduler state the perf sampler records so a cross-run diff
// can report runtime-health drift alongside the physical-layer KPIs.
type RuntimeSample struct {
	UnixNs        int64   `json:"unix_ns"`
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
	HeapGoalBytes uint64  `json:"heap_goal_bytes"`
	Goroutines    uint64  `json:"goroutines"`
	GCCycles      uint64  `json:"gc_cycles"`
	GCPauseP50    float64 `json:"gc_pause_p50_s"`
	GCPauseP99    float64 `json:"gc_pause_p99_s"`
	SchedLatP99   float64 `json:"sched_latency_p99_s"`
}

// AuxCount is one named work counter riding a PhaseCost sample —
// domain units like images enumerated, paths kept, or subcarrier
// evaluations that give the ns/calls pair a denominator.
type AuxCount struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// PhaseCost is one cumulative work-accounting sample for a named
// execution phase ("path_trace", "channel_sum", ...). Samples are
// cumulative since collection started, so the last record per phase
// carries the run's totals and a torn tail only loses recency, never
// the whole tally.
type PhaseCost struct {
	UnixNs int64  `json:"unix_ns"`
	Phase  string `json:"phase"`
	// Ns is total time spent inside the phase, Calls how many spans
	// closed, Bytes the heap bytes allocated while a phase span was open
	// (process-wide reading; see internal/obs/prof).
	Ns    int64      `json:"ns"`
	Calls int64      `json:"calls"`
	Bytes int64      `json:"bytes,omitempty"`
	Aux   []AuxCount `json:"aux,omitempty"`
}

// LoopRecord is one control-loop iteration measured against its
// coherence deadline (§2): end-to-end latency, the deadline in force,
// whether it was missed, and the per-phase breakdown of where the time
// went. TraceID joins the record to the loop's span tree (/tracez,
// Chrome-trace export) and to control-plane frames.
type LoopRecord struct {
	UnixNs     int64  `json:"unix_ns"`
	TraceID    uint64 `json:"trace_id"`
	Seq        uint64 `json:"seq"`
	Name       string `json:"name"`
	DeadlineNs int64  `json:"deadline_ns"`
	LatencyNs  int64  `json:"latency_ns"`
	Missed     bool   `json:"missed"`
	// Phases carries per-top-level-phase wall time in nanoseconds
	// (sense, search, actuate, ...), reusing AuxCount.
	Phases []AuxCount `json:"phases,omitempty"`
}

// SearchDecision is one configuration-search evaluation: which config
// was measured, what it scored, and whether it improved the best.
type SearchDecision struct {
	UnixNs   int64   `json:"unix_ns"`
	Eval     uint64  `json:"eval"`
	Score    float64 `json:"score"`
	Improved bool    `json:"improved"`
	Config   []int32 `json:"config"`
}

// ---- binary payload codec ----
//
// All integers are little-endian and fixed-width; strings and slices are
// u32-length-prefixed. The decoder bounds-checks every read against the
// remaining payload, so corrupt lengths can never over-read.

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) f64s(vs []float64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

// i32sFromInts encodes an []int config without converting through an
// intermediate slice (keeps the producer path allocation-free).
func (e *enc) i32sFromInts(vs []int) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.u32(uint32(int32(v)))
	}
}
func (e *enc) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.u32(uint32(v))
	}
}

type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) fail() {
	d.bad = true
	d.off = len(d.b)
}
func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || len(d.b)-d.off < n {
		d.fail()
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}
func (d *dec) u8() uint8 {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}
func (d *dec) u16() uint16 {
	if s := d.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}
func (d *dec) u32() uint32 {
	if s := d.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}
func (d *dec) u64() uint64 {
	if s := d.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) boolv() bool  { return d.u8() != 0 }
func (d *dec) str() string {
	n := int(d.u32())
	if d.bad || len(d.b)-d.off < n {
		d.fail()
		return ""
	}
	return string(d.take(n))
}
func (d *dec) f64s() []float64 {
	n := int(d.u32())
	if d.bad || n < 0 || len(d.b)-d.off < n*8 {
		d.fail()
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.f64()
	}
	return vs
}
func (d *dec) i32s() []int32 {
	n := int(d.u32())
	if d.bad || n < 0 || len(d.b)-d.off < n*4 {
		d.fail()
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.u32())
	}
	return vs
}

// done reports whether the payload decoded cleanly and completely.
func (d *dec) done() bool { return !d.bad && d.off == len(d.b) }

var errBadPayload = fmt.Errorf("flight: malformed record payload")

func encodeManifest(e *enc, m *Manifest) {
	e.u16(m.FormatVersion)
	e.str(m.RunID)
	e.str(m.Binary)
	e.str(m.Scenario)
	e.u64(m.Seed)
	e.u32(uint32(len(m.Params)))
	for _, p := range m.Params {
		e.str(p.Key)
		e.str(p.Value)
	}
	e.u64(m.Fingerprint)
	e.i64(m.StartUnixNs)
	e.str(m.GoVersion)
	e.str(m.VCSRevision)
	e.str(m.VCSTime)
	e.bool(m.VCSModified)
}

func decodeManifest(payload []byte) (*Manifest, error) {
	d := &dec{b: payload}
	m := &Manifest{
		FormatVersion: d.u16(),
		RunID:         d.str(),
		Binary:        d.str(),
		Scenario:      d.str(),
		Seed:          d.u64(),
	}
	n := int(d.u32())
	if d.bad || n < 0 || len(d.b)-d.off < n { // ≥1 byte per param pair
		return nil, errBadPayload
	}
	if n > 0 {
		m.Params = make([]Param, n)
		for i := range m.Params {
			m.Params[i] = Param{Key: d.str(), Value: d.str()}
		}
	}
	m.Fingerprint = d.u64()
	m.StartUnixNs = d.i64()
	m.GoVersion = d.str()
	m.VCSRevision = d.str()
	m.VCSTime = d.str()
	m.VCSModified = d.boolv()
	if !d.done() {
		return nil, errBadPayload
	}
	return m, nil
}

func decodeActuation(payload []byte) (Actuation, error) {
	d := &dec{b: payload}
	a := Actuation{
		UnixNs:  d.i64(),
		TraceID: d.u64(),
		Source:  ActuationSource(d.u8()),
		Config:  d.i32s(),
	}
	if !d.done() {
		return Actuation{}, errBadPayload
	}
	return a, nil
}

func decodeCSI(payload []byte) (CSISample, error) {
	d := &dec{b: payload}
	c := CSISample{UnixNs: d.i64(), Seq: d.u64(), SNRdB: d.f64s()}
	if !d.done() {
		return CSISample{}, errBadPayload
	}
	return c, nil
}

func decodeKPI(payload []byte) (KPISample, error) {
	d := &dec{b: payload}
	k := KPISample{UnixNs: d.i64(), Name: d.str(), Value: d.f64()}
	if !d.done() {
		return KPISample{}, errBadPayload
	}
	return k, nil
}

func decodeAlert(payload []byte) (AlertTransition, error) {
	d := &dec{b: payload}
	a := AlertTransition{
		UnixNs: d.i64(), Rule: d.str(),
		From: d.u8(), To: d.u8(), Value: d.f64(),
	}
	if !d.done() {
		return AlertTransition{}, errBadPayload
	}
	return a, nil
}

func decodeRuntime(payload []byte) (RuntimeSample, error) {
	d := &dec{b: payload}
	s := RuntimeSample{
		UnixNs:        d.i64(),
		HeapLiveBytes: d.u64(),
		HeapGoalBytes: d.u64(),
		Goroutines:    d.u64(),
		GCCycles:      d.u64(),
		GCPauseP50:    d.f64(),
		GCPauseP99:    d.f64(),
		SchedLatP99:   d.f64(),
	}
	if !d.done() {
		return RuntimeSample{}, errBadPayload
	}
	return s, nil
}

func decodePhaseCost(payload []byte) (PhaseCost, error) {
	d := &dec{b: payload}
	p := PhaseCost{
		UnixNs: d.i64(), Phase: d.str(),
		Ns: d.i64(), Calls: d.i64(), Bytes: d.i64(),
	}
	n := int(d.u32())
	if d.bad || n < 0 || len(d.b)-d.off < n { // ≥1 byte per aux entry
		return PhaseCost{}, errBadPayload
	}
	if n > 0 {
		p.Aux = make([]AuxCount, n)
		for i := range p.Aux {
			p.Aux[i] = AuxCount{Name: d.str(), Value: d.i64()}
		}
	}
	if !d.done() {
		return PhaseCost{}, errBadPayload
	}
	return p, nil
}

func decodeLoop(payload []byte) (LoopRecord, error) {
	d := &dec{b: payload}
	l := LoopRecord{
		UnixNs: d.i64(), TraceID: d.u64(), Seq: d.u64(), Name: d.str(),
		DeadlineNs: d.i64(), LatencyNs: d.i64(), Missed: d.boolv(),
	}
	n := int(d.u32())
	if d.bad || n < 0 || len(d.b)-d.off < n { // ≥1 byte per phase entry
		return LoopRecord{}, errBadPayload
	}
	if n > 0 {
		l.Phases = make([]AuxCount, n)
		for i := range l.Phases {
			l.Phases[i] = AuxCount{Name: d.str(), Value: d.i64()}
		}
	}
	if !d.done() {
		return LoopRecord{}, errBadPayload
	}
	return l, nil
}

func decodeDecision(payload []byte) (SearchDecision, error) {
	d := &dec{b: payload}
	s := SearchDecision{
		UnixNs: d.i64(), Eval: d.u64(), Score: d.f64(),
		Improved: d.boolv(), Config: d.i32s(),
	}
	if !d.done() {
		return SearchDecision{}, errBadPayload
	}
	return s, nil
}
