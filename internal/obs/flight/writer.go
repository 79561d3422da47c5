package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"press/internal/obs"
)

// Defaults for the recorder's tuning knobs.
const (
	// DefaultSegmentMB is the segment rotation threshold.
	DefaultSegmentMB = 64
	// DefaultFlushInterval is the group-commit period: the longest
	// window of records a crash can lose.
	DefaultFlushInterval = 100 * time.Millisecond
	// flushHighWater forces an inline flush when the pending buffer
	// outgrows it, bounding memory between group commits.
	flushHighWater = 256 << 10
)

// Recorder appends flight-log records to size-rotated segment files in
// one run directory. The producer path encodes the record into a
// pending buffer under a mutex — a few hundred nanoseconds, no
// allocations once the buffers are warm — and a background group-commit
// loop writes the buffer out every DefaultFlushInterval (plus inline
// when it passes the high-water mark). Rotation and Close fsync, so at
// most one flush interval of records is at risk on a crash; the decoder
// handles the torn tail that leaves.
//
// A nil *Recorder discards everything at zero cost — the same disabled
// convention as a nil obs.Registry — so producers hold one
// unconditionally.
type Recorder struct {
	dir      string
	runID    string
	segBytes int64

	mu         sync.Mutex
	buf        []byte // pending encoded frames (whole frames only)
	scratch    []byte // payload encoding workspace
	e          enc    // reused by begin/commit so producers never allocate
	f          *os.File
	seg        int
	segWritten int64
	csiSeq     uint64
	records    uint64
	err        error // sticky first I/O error
	closed     bool

	life obs.Lifecycle
}

// Open creates (if needed) the run directory dir and starts a recorder
// rotating segments at segMB megabytes (0 = DefaultSegmentMB). The
// directory's base name is the run ID. A directory that already holds
// a run's first segment is an error: a recording is never overwritten.
func Open(dir string, segMB int) (*Recorder, error) {
	if segMB <= 0 {
		segMB = DefaultSegmentMB
	}
	return open(dir, int64(segMB)<<20)
}

func open(dir string, segBytes int64) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &Recorder{
		dir:      dir,
		runID:    filepath.Base(dir),
		segBytes: segBytes,
	}
	f, err := flightLog.Create(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	r.f = f
	r.life.Start(nil, r.loop)
	return r, nil
}

// RunID returns the run identifier (the run directory's base name); ""
// on a nil recorder.
func (r *Recorder) RunID() string {
	if r == nil {
		return ""
	}
	return r.runID
}

// Dir returns the run directory; "" on a nil recorder.
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Err returns the sticky first I/O error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Records returns how many records have been accepted.
func (r *Recorder) Records() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records
}

func (r *Recorder) loop(stop <-chan struct{}) {
	t := time.NewTicker(DefaultFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			r.mu.Lock()
			r.flushLocked(false)
			r.mu.Unlock()
		}
	}
}

// begin locks the recorder and hands out its reusable payload encoder,
// or nil when recording is off (nil recorder, closed, or failed). A
// non-nil return MUST be balanced by commit. The begin/commit split —
// rather than a record(kind, closure) helper — keeps the producer path
// free of closure allocations.
func (r *Recorder) begin() *enc {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.closed || r.err != nil {
		r.mu.Unlock()
		return nil
	}
	r.e.b = r.scratch[:0]
	return &r.e
}

// commit frames the encoded payload into the pending buffer and unlocks.
func (r *Recorder) commit(kind Kind) {
	r.scratch = r.e.b
	r.buf = flightLog.Append(r.buf, byte(kind), r.e.b)
	r.records++
	if len(r.buf) >= flushHighWater {
		r.flushLocked(false)
	}
	r.mu.Unlock()
}

// flushLocked writes the pending buffer to the current segment,
// rotating (with fsync) when the segment passes its size threshold.
// Caller holds r.mu.
func (r *Recorder) flushLocked(sync bool) {
	if r.err != nil || r.f == nil {
		r.buf = r.buf[:0]
		return
	}
	if len(r.buf) > 0 {
		n, err := r.f.Write(r.buf)
		r.segWritten += int64(n)
		r.buf = r.buf[:0]
		if err != nil {
			r.err = err
			return
		}
	}
	if sync {
		if err := r.f.Sync(); err != nil {
			r.err = err
			return
		}
	}
	if r.segWritten >= r.segBytes {
		if err := r.f.Sync(); err != nil {
			r.err = err
			return
		}
		if err := r.f.Close(); err != nil {
			r.err = err
			return
		}
		r.seg++
		f, err := flightLog.Create(r.dir, r.seg)
		if err != nil {
			r.err = err
			r.f = nil
			return
		}
		r.f = f
		r.segWritten = 0
	}
}

// Flush writes all pending records to disk and fsyncs the current
// segment. The group-commit loop makes routine calls unnecessary; it
// exists for durability barriers (the manifest, tests).
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.flushLocked(true)
	return r.err
}

// Close flushes, fsyncs, and closes the run log. Further records are
// discarded. Safe to call more than once and on a nil recorder.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.life.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	r.flushLocked(true)
	if r.f != nil {
		if err := r.f.Close(); err != nil && r.err == nil {
			r.err = err
		}
		r.f = nil
	}
	return r.err
}

// RecordManifest writes the run manifest — conventionally the first
// record — filling RunID, FormatVersion, and Fingerprint if unset, and
// flushes it to disk immediately so even a crashed run is identifiable.
func (r *Recorder) RecordManifest(m *Manifest) {
	if r == nil || m == nil {
		return
	}
	if m.RunID == "" {
		m.RunID = r.runID
	}
	if m.FormatVersion == 0 {
		m.FormatVersion = FormatVersion
	}
	if m.Fingerprint == 0 {
		m.Fingerprint = m.ComputeFingerprint()
	}
	e := r.begin()
	if e == nil {
		return
	}
	encodeManifest(e, m)
	r.commit(KindManifest)
	_ = r.Flush()
}

// RecordActuation logs one applied element configuration.
func (r *Recorder) RecordActuation(source ActuationSource, traceID uint64, cfg []int) {
	e := r.begin()
	if e == nil {
		return
	}
	e.i64(time.Now().UnixNano())
	e.u64(traceID)
	e.u8(uint8(source))
	e.i32sFromInts(cfg)
	r.commit(KindActuation)
}

// RecordCSI logs one measured per-subcarrier SNR curve, assigning it
// the next measurement sequence number. Scope.ObserveCSI calls it for
// every sounding of a link the scope is attached to.
func (r *Recorder) RecordCSI(snrDB []float64) {
	e := r.begin()
	if e == nil {
		return
	}
	e.i64(time.Now().UnixNano())
	e.u64(r.csiSeq) // r.mu held between begin and commit
	r.csiSeq++
	e.f64s(snrDB)
	r.commit(KindCSI)
}

// RecordKPI logs one named scalar sample.
func (r *Recorder) RecordKPI(name string, value float64) {
	e := r.begin()
	if e == nil {
		return
	}
	e.i64(time.Now().UnixNano())
	e.str(name)
	e.f64(value)
	r.commit(KindKPI)
}

// RecordAlert logs one alert-rule state transition.
func (r *Recorder) RecordAlert(rule string, from, to uint8, value float64) {
	e := r.begin()
	if e == nil {
		return
	}
	e.i64(time.Now().UnixNano())
	e.str(rule)
	e.u8(from)
	e.u8(to)
	e.f64(value)
	r.commit(KindAlert)
}

// RecordRuntime logs one periodic Go-runtime health snapshot. A zero
// UnixNs is stamped with the current time.
func (r *Recorder) RecordRuntime(s RuntimeSample) {
	e := r.begin()
	if e == nil {
		return
	}
	if s.UnixNs == 0 {
		s.UnixNs = time.Now().UnixNano()
	}
	e.i64(s.UnixNs)
	e.u64(s.HeapLiveBytes)
	e.u64(s.HeapGoalBytes)
	e.u64(s.Goroutines)
	e.u64(s.GCCycles)
	e.f64(s.GCPauseP50)
	e.f64(s.GCPauseP99)
	e.f64(s.SchedLatP99)
	r.commit(KindRuntime)
}

// RecordPhaseCost logs one cumulative per-phase work-accounting sample.
// A zero UnixNs is stamped with the current time.
func (r *Recorder) RecordPhaseCost(p PhaseCost) {
	e := r.begin()
	if e == nil {
		return
	}
	if p.UnixNs == 0 {
		p.UnixNs = time.Now().UnixNano()
	}
	e.i64(p.UnixNs)
	e.str(p.Phase)
	e.i64(p.Ns)
	e.i64(p.Calls)
	e.i64(p.Bytes)
	e.u32(uint32(len(p.Aux)))
	for _, a := range p.Aux {
		e.str(a.Name)
		e.i64(a.Value)
	}
	r.commit(KindPhaseCost)
}

// RecordLoop logs one control-loop iteration measured against its
// coherence deadline. A zero UnixNs is stamped with the current time.
func (r *Recorder) RecordLoop(l LoopRecord) {
	e := r.begin()
	if e == nil {
		return
	}
	if l.UnixNs == 0 {
		l.UnixNs = time.Now().UnixNano()
	}
	e.i64(l.UnixNs)
	e.u64(l.TraceID)
	e.u64(l.Seq)
	e.str(l.Name)
	e.i64(l.DeadlineNs)
	e.i64(l.LatencyNs)
	e.bool(l.Missed)
	e.u32(uint32(len(l.Phases)))
	for _, p := range l.Phases {
		e.str(p.Name)
		e.i64(p.Value)
	}
	r.commit(KindLoop)
}

// RecordDecision logs one search evaluation: the measured config, its
// score, and whether it improved the best-so-far.
func (r *Recorder) RecordDecision(eval uint64, score float64, improved bool, cfg []int) {
	e := r.begin()
	if e == nil {
		return
	}
	e.i64(time.Now().UnixNano())
	e.u64(eval)
	e.f64(score)
	e.bool(improved)
	e.i32sFromInts(cfg)
	r.commit(KindDecision)
}
