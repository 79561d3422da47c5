// Package export is the push half of the telemetry layer: where every
// endpoint PRs 1–8 built is pull-based (a scrape reads the registry on
// demand), the exporter ships registry state out of the process to a
// collector — the egress a fleet of long-running environment
// controllers needs once per-room scrape endpoints stop scaling.
//
// The pipeline is snapshot-diff → bounded queue → shipper:
//
//   - A collector goroutine snapshots the root registry (and every
//     live per-session scope registry) on a timer and turns each into a
//     delta Batch: counter/histogram/span increments since the previous
//     successful enqueue, gauges as latest values.
//   - Batches go into a bounded in-memory queue with a non-blocking
//     enqueue. Overflow drops the batch and increments
//     obs_export_dropped_total — but the diff baseline only advances on
//     a successful enqueue, so a dropped batch's counter deltas fold
//     into the next batch instead of vanishing: totals at the collector
//     still reconcile with the registry once the sink recovers.
//   - A shipper goroutine drains the queue, encodes batches as NDJSON
//     or a JSON array, and sends them to the Sink, retrying with
//     exponential backoff plus jitter while the sink is down. A dead or
//     slow collector therefore never blocks anything: producers write
//     atomics into the registry exactly as before, the collector's
//     enqueue never waits, and only the shipper sleeps.
//
// Shutdown is flush-on-stop via obs.Lifecycle: Stop runs one final
// collection, then gives the shipper a bounded window to drain what is
// queued. Self-telemetry (batches sent/failed/dropped, retries, queue
// depth, last-success age) lands in the same registry it exports, is
// served at /exportz, and feeds the channel-health monitor's export_*
// KPIs so the alert engine can fire when the collector has been
// unreachable too long.
//
// A nil *Exporter disables everything at the cost of a pointer check,
// the package-wide convention.
package export

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/obs"
	"press/internal/obs/health"
	"press/internal/obs/names"
)

// BatchSchema versions the Batch wire shape.
const BatchSchema = 1

// Defaults for Options' tuning knobs.
const (
	// DefaultInterval is the collection cadence when none is configured.
	DefaultInterval = time.Second
	// DefaultQueueCap bounds the in-memory batch queue.
	DefaultQueueCap = 256
	// DefaultRetryBase is the first retry backoff after a failed send.
	DefaultRetryBase = 250 * time.Millisecond
	// DefaultRetryMax caps the exponential backoff.
	DefaultRetryMax = 15 * time.Second
	// DefaultFlushTimeout bounds the final drain attempt at Stop.
	DefaultFlushTimeout = 2 * time.Second
	// maxCoalesce bounds how many queued batches one send carries.
	maxCoalesce = 32
)

// Self-telemetry metric names the exporter maintains in the registry it
// exports (so the pipeline observes itself through the pipeline). The
// spellings live in internal/obs/names so health rules and tests can't
// drift from the producer.
const (
	CounterBatchesSent   = names.ExportBatchesSent
	CounterBatchesFailed = names.ExportBatchesFailed
	CounterRetries       = names.ExportRetries
	CounterDropped       = names.ExportDropped
	GaugeQueueDepth      = names.ExportQueueDepth
	GaugeLastSuccessMs   = names.ExportLastSuccessMs
)

// HistDelta is a histogram's increment between two snapshots: how many
// observations arrived and what they summed to. Bucket layouts stay
// process-local; collectors that need quantiles subscribe to the pull
// endpoints instead.
type HistDelta struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// SpanDelta is a span aggregate's increment between two snapshots.
type SpanDelta struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
}

// Batch is one export payload: the delta of one source registry since
// the previous successfully enqueued batch, stamped with the session
// the registry belongs to ("" = the process root). Counters, histogram
// count/sum pairs, and span aggregates are increments; gauges carry
// their latest value.
type Batch struct {
	Schema     int                  `json:"schema"`
	Seq        uint64               `json:"seq"`
	Session    string               `json:"session,omitempty"`
	UnixMs     int64                `json:"unix_ms"`
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]HistDelta `json:"histograms,omitempty"`
	Spans      map[string]SpanDelta `json:"spans,omitempty"`
}

// empty reports whether the batch carries no data beyond its stamp.
func (b Batch) empty() bool {
	return len(b.Counters) == 0 && len(b.Gauges) == 0 &&
		len(b.Histograms) == 0 && len(b.Spans) == 0
}

// SessionSource enumerates live per-session registries for the
// collector: emit is called once per session with its ID and registry.
// The scope layer's Set provides one without export depending on scope.
type SessionSource func(emit func(id string, reg *obs.Registry))

// Tap is a local, in-process subscriber to the same per-source delta
// batches the sink leg ships — how the tsdb store rides the exporter's
// snapshot-diff machinery without re-walking the registry. Offer must
// not block; it reports whether the batch was accepted. The tap keeps
// its own diff baseline inside the exporter, advanced only on an
// accepted offer, so a rejected batch's deltas fold into the next one —
// the same reconciliation invariant the queue leg has.
type Tap interface {
	Offer(Batch) bool
}

// Options tunes an Exporter.
type Options struct {
	// Interval is the collection cadence (≤ 0: DefaultInterval).
	Interval time.Duration
	// Format is the payload encoding, "ndjson" (default) or "json".
	Format string
	// QueueCap bounds the batch queue (≤ 0: DefaultQueueCap).
	QueueCap int
	// Session labels the root registry's batches ("" = unlabeled).
	Session string
	// Monitor, when set, receives ObserveExport readings each
	// collection so the export_* KPIs and their alert rules see the
	// pipeline's state.
	Monitor *health.Monitor
	// RetryBase/RetryMax shape the send backoff (≤ 0: defaults).
	RetryBase time.Duration
	RetryMax  time.Duration
	// FlushTimeout bounds Stop's final drain (≤ 0: default).
	FlushTimeout time.Duration
}

// srcBaseline is the last successfully enqueued snapshot of one source,
// the subtrahend of the next delta.
type srcBaseline struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]HistDelta
	spans    map[string]SpanDelta
	seen     bool // source emitted at least one batch
}

// Exporter is the push pipeline over one root registry plus any number
// of session registries. All methods are safe for concurrent use and on
// a nil receiver.
type Exporter struct {
	reg  *obs.Registry
	sink Sink
	opt  Options

	q        chan Batch
	collect  obs.Lifecycle
	ship     obs.Lifecycle
	sessions atomic.Pointer[SessionSource]
	rootSess atomic.Pointer[string]

	// diffMu serializes collections (the timer loop, CollectNow, and
	// the final Stop collection) over the per-source baselines.
	diffMu  sync.Mutex
	base    map[string]*srcBaseline
	tap     Tap
	tapBase map[string]*srcBaseline

	seq       atomic.Uint64
	enqueued  atomic.Int64
	sent      atomic.Int64
	sendFails atomic.Int64
	retries   atomic.Int64
	dropped   atomic.Int64
	unflushed atomic.Int64
	started   time.Time

	lastSuccessNs atomic.Int64
	errMu         sync.Mutex
	lastErr       string
	lastErrNs     int64

	// Self-metric handles, resolved once.
	mSent, mFailed, mRetries, mDropped *obs.Counter
	mDepth, mLastOK                    *obs.Gauge
}

// New builds an exporter shipping reg (plus any registered session
// sources) to sink. Call Start to begin collecting; the exporter owns
// the sink and closes it in Stop.
//
// A nil sink is the local-only collector mode: the snapshot-diff loop
// runs, attached taps receive batches, but there is no queue shipper
// and no obs_export_* self-metrics (nothing is being exported, so the
// push pipeline must not report itself live). This is how `-tsdb-dir`
// gets per-source deltas without requiring `-export-url`.
func New(reg *obs.Registry, sink Sink, opt Options) *Exporter {
	if opt.Interval <= 0 {
		opt.Interval = DefaultInterval
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = DefaultQueueCap
	}
	if opt.RetryBase <= 0 {
		opt.RetryBase = DefaultRetryBase
	}
	if opt.RetryMax <= 0 {
		opt.RetryMax = DefaultRetryMax
	}
	if opt.FlushTimeout <= 0 {
		opt.FlushTimeout = DefaultFlushTimeout
	}
	if opt.Format == "" {
		opt.Format = FormatNDJSON
	}
	e := &Exporter{
		reg:     reg,
		sink:    sink,
		opt:     opt,
		q:       make(chan Batch, opt.QueueCap),
		base:    map[string]*srcBaseline{},
		tapBase: map[string]*srcBaseline{},
	}
	if sink != nil {
		// Local-only mode leaves the handles nil (nil handles are
		// no-ops), keeping obs_export_* out of a registry nothing
		// exports from.
		e.mSent = reg.Counter(CounterBatchesSent)
		e.mFailed = reg.Counter(CounterBatchesFailed)
		e.mRetries = reg.Counter(CounterRetries)
		e.mDropped = reg.Counter(CounterDropped)
		e.mDepth = reg.Gauge(GaugeQueueDepth)
		e.mLastOK = reg.Gauge(GaugeLastSuccessMs)
	}
	if opt.Session != "" {
		s := opt.Session
		e.rootSess.Store(&s)
	}
	return e
}

// SetSessions installs (or, with nil, removes) the per-session registry
// enumerator. Safe before or after Start and on a nil exporter.
func (e *Exporter) SetSessions(src SessionSource) {
	if e == nil {
		return
	}
	if src == nil {
		e.sessions.Store(nil)
		return
	}
	e.sessions.Store(&src)
}

// SetRootSession labels the root registry's batches with a session ID
// after construction (Options.Session sets it up front, which is how a
// single-session CLI run stamps its identity onto everything it
// pushes). Safe on a nil exporter.
func (e *Exporter) SetRootSession(id string) {
	if e == nil {
		return
	}
	// Copy after the nil check: storing &id directly would make the
	// parameter escape, charging the nil (disabled) path one heap
	// allocation in the prologue.
	s := id
	e.rootSess.Store(&s)
}

// AttachTap installs a local batch subscriber (nil removes it). The tap
// gets its own per-source baselines, so it and the sink leg reconcile
// independently: each sees every delta exactly once across the batches
// it accepted. Safe before or after Start and on a nil exporter.
func (e *Exporter) AttachTap(t Tap) {
	if e == nil {
		return
	}
	e.diffMu.Lock()
	e.tap = t
	if t == nil {
		e.tapBase = map[string]*srcBaseline{}
	}
	e.diffMu.Unlock()
}

// Start launches the collector and shipper goroutines. Idempotent; a
// nil exporter ignores the call.
func (e *Exporter) Start() {
	if e == nil {
		return
	}
	if e.sink != nil {
		e.ship.Start(nil, e.shipLoop)
	}
	e.collect.Start(func() { e.started = time.Now(); e.CollectNow() }, e.collectLoop)
}

// Stop runs one final collection, drains the queue into the sink within
// FlushTimeout, and closes the sink. Idempotent; nil-safe. The returned
// error is the sink's close error (batches that could not be flushed
// are counted, not failed on — losing the tail of telemetry must not
// fail the run that produced it).
func (e *Exporter) Stop() error {
	if e == nil {
		return nil
	}
	e.collect.Stop()
	if e.started.IsZero() {
		// Never started: nothing collected, nothing to flush. (Reading
		// started is safe: collect.Stop consumed the start-once, so no
		// setup can write it after this point.)
		e.ship.Stop()
		return e.closeSink()
	}
	e.ship.Stop() // shipper drains the queue + one flush attempt on exit
	// The tail of the run — whatever accrued after the last timer tick,
	// including deltas folded back by overflow drops — goes around the
	// queue entirely: with the shipper gone nothing would drain it, and
	// the shutdown tail must not be lost to a still-full queue. The
	// collection inside also hands the tail to the tap.
	e.flushFinal()
	return e.closeSink()
}

func (e *Exporter) closeSink() error {
	if e.sink == nil {
		return nil
	}
	return e.sink.Close()
}

func (e *Exporter) collectLoop(stop <-chan struct{}) {
	t := time.NewTicker(e.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.CollectNow()
		}
	}
}

// CollectNow snapshots every source and enqueues the resulting delta
// batches immediately — the timer path, exported so tests (and the
// scope layer, before it tears a session down) can force a collection.
// Safe on a nil exporter.
func (e *Exporter) CollectNow() {
	if e == nil {
		return
	}
	e.diffMu.Lock()
	defer e.diffMu.Unlock()
	now := time.Now()

	rootSession := ""
	if p := e.rootSess.Load(); p != nil {
		rootSession = *p
	}
	live := map[string]bool{"": true}
	// Root first: its batch doubles as the pipeline heartbeat, so it is
	// emitted even when empty (a collector distinguishing "idle" from
	// "dead" needs the difference).
	e.collectSource("", rootSession, e.reg, now, true, nil)
	if src := e.sessions.Load(); src != nil {
		(*src)(func(id string, reg *obs.Registry) {
			if id == "" || reg == nil || live[id] {
				return
			}
			live[id] = true
			e.collectSource(id, id, reg, now, false, nil)
		})
	}
	// Prune baselines of sessions that no longer exist: their writes
	// rolled up into the root registry all along, so the process totals
	// still reconcile; only the per-session tail is gone with them.
	for id := range e.base {
		if !live[id] {
			delete(e.base, id)
		}
	}
	for id := range e.tapBase {
		if !live[id] {
			delete(e.tapBase, id)
		}
	}

	e.mDepth.Set(float64(len(e.q)))
	e.observeHealth(now)
}

// collectSource diffs one registry against its baselines and delivers
// the deltas: once to the attached tap (against the tap's baseline) and
// once to the sink leg — enqueued, or, when direct is non-nil (the
// shutdown path), appended there instead, bypassing the queue. Caller
// holds diffMu.
func (e *Exporter) collectSource(key, session string, reg *obs.Registry, now time.Time, heartbeat bool, direct *[]Batch) {
	snap := reg.Snapshot()
	if e.tap != nil {
		tb := e.tapBase[key]
		if tb == nil {
			tb = newBaseline()
			e.tapBase[key] = tb
		}
		if b := diffSnapshot(tb, snap, session, now); !b.empty() {
			b.Seq = e.seq.Add(1)
			if e.tap.Offer(b) {
				e.advanceBaseline(tb, snap)
			}
			// Rejected: leave the baseline, the deltas fold into the
			// next offered batch (the store counts the drop itself).
		}
	}
	if e.sink == nil {
		return // local-only mode: no queue, no shipper
	}
	base := e.base[key]
	if base == nil {
		base = newBaseline()
		e.base[key] = base
	}
	b := diffSnapshot(base, snap, session, now)
	if direct != nil {
		// Shutdown tail: only data matters, no heartbeats.
		if b.empty() {
			return
		}
		b.Seq = e.seq.Add(1)
		*direct = append(*direct, b)
		e.advanceBaseline(base, snap)
		return
	}
	if b.empty() && !heartbeat && base.seen {
		return
	}
	b.Seq = e.seq.Add(1)
	select {
	case e.q <- b:
		e.enqueued.Add(1)
		e.advanceBaseline(base, snap)
	default:
		// Queue full: drop the batch, count it, and leave the baseline
		// alone — these deltas ride the next batch that fits.
		e.dropped.Add(1)
		e.mDropped.Inc()
	}
}

func newBaseline() *srcBaseline {
	return &srcBaseline{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]HistDelta{},
		spans:    map[string]SpanDelta{},
	}
}

// diffSnapshot builds the delta batch of snap against base: counter,
// histogram, and span increments, gauges that changed since the last
// advance (all of them on first contact). It does not touch base — the
// caller advances it only once the batch has been handed off.
func diffSnapshot(base *srcBaseline, snap obs.Snapshot, session string, now time.Time) Batch {
	b := Batch{Schema: BatchSchema, Session: session, UnixMs: now.UnixMilli()}
	for name, v := range snap.Counters {
		if d := v - base.counters[name]; d != 0 {
			if b.Counters == nil {
				b.Counters = map[string]int64{}
			}
			b.Counters[name] = d
		}
	}
	// Gauges are latest-value, not deltas: ship the ones that changed
	// since the last successful enqueue (all of them on first contact).
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
	for name, s := range snap.Spans {
		prev := base.spans[name]
		if d := (SpanDelta{Count: s.Count - prev.Count, TotalSeconds: s.TotalSeconds - prev.TotalSeconds}); d.Count != 0 {
			if b.Spans == nil {
				b.Spans = map[string]SpanDelta{}
			}
			b.Spans[name] = d
		}
	}
	return b
}

// advanceBaseline moves a source's diff baseline to snap — only after
// the corresponding batch has been handed off, so un-handed deltas keep
// folding into the next batch. Caller holds diffMu.
func (e *Exporter) advanceBaseline(base *srcBaseline, snap obs.Snapshot) {
	for name, v := range snap.Counters {
		base.counters[name] = v
	}
	for name, v := range snap.Gauges {
		base.gauges[name] = v
	}
	for name, h := range snap.Histograms {
		base.hists[name] = HistDelta{Count: h.Count, Sum: h.Sum}
	}
	for name, s := range snap.Spans {
		base.spans[name] = SpanDelta{Count: s.Count, TotalSeconds: s.TotalSeconds}
	}
	base.seen = true
}

// flushFinal collects the run's tail directly into one bounded send,
// bypassing the queue (the shipper is already gone). Undeliverable
// batches are counted as unflushed and dropped, not retried.
func (e *Exporter) flushFinal() {
	e.diffMu.Lock()
	now := time.Now()
	rootSession := ""
	if p := e.rootSess.Load(); p != nil {
		rootSession = *p
	}
	var batch []Batch
	e.collectSource("", rootSession, e.reg, now, false, &batch)
	if src := e.sessions.Load(); src != nil {
		seen := map[string]bool{"": true}
		(*src)(func(id string, reg *obs.Registry) {
			if id == "" || reg == nil || seen[id] {
				return
			}
			seen[id] = true
			e.collectSource(id, id, reg, now, false, &batch)
		})
	}
	e.diffMu.Unlock()
	if len(batch) == 0 {
		return
	}
	if !e.trySend(batch, e.opt.FlushTimeout) {
		n := int64(len(batch))
		e.unflushed.Add(n)
		e.dropped.Add(n)
		e.mDropped.Add(n)
	}
}

// observeHealth feeds the monitor's export_* KPIs. Called with diffMu
// held (cheap: three atomics and a time read).
func (e *Exporter) observeHealth(now time.Time) {
	if e.opt.Monitor == nil {
		return
	}
	e.opt.Monitor.ObserveExport(len(e.q), e.dropped.Load(), e.lastSuccessAge(now).Seconds())
}

// lastSuccessAge is the time since the last successful send; before any
// success it counts from Start, so a collector that was never reachable
// ages from the beginning of the run.
func (e *Exporter) lastSuccessAge(now time.Time) time.Duration {
	if ns := e.lastSuccessNs.Load(); ns > 0 {
		return now.Sub(time.Unix(0, ns))
	}
	if e.started.IsZero() {
		return 0
	}
	return now.Sub(e.started)
}

func (e *Exporter) shipLoop(stop <-chan struct{}) {
	for {
		select {
		case b := <-e.q:
			e.mDepth.Set(float64(len(e.q)))
			batch := []Batch{b}
		coalesce:
			for len(batch) < maxCoalesce {
				select {
				case nb := <-e.q:
					batch = append(batch, nb)
				default:
					break coalesce
				}
			}
			if !e.sendWithRetry(batch, stop) {
				// Stop arrived mid-retry: hand the undelivered batches
				// to the final flush below.
				e.flush(batch)
				return
			}
		case <-stop:
			e.flush(nil)
			return
		}
	}
}

// sendWithRetry ships one coalesced batch set, backing off
// exponentially with ±50% jitter until it succeeds or stop closes.
func (e *Exporter) sendWithRetry(batch []Batch, stop <-chan struct{}) bool {
	backoff := e.opt.RetryBase
	for {
		if e.trySend(batch, 0) {
			return true
		}
		select {
		case <-stop:
			return false
		default:
		}
		e.retries.Add(1)
		e.mRetries.Inc()
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff)))
		select {
		case <-stop:
			return false
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > e.opt.RetryMax {
			backoff = e.opt.RetryMax
		}
	}
}

// trySend makes one send attempt and updates the self-telemetry.
func (e *Exporter) trySend(batch []Batch, timeout time.Duration) bool {
	payload, err := EncodeBatches(e.opt.Format, batch)
	if err == nil {
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err = e.sink.Send(ctx, payload)
		cancel()
	}
	if err != nil {
		e.sendFails.Add(int64(len(batch)))
		e.mFailed.Add(int64(len(batch)))
		e.errMu.Lock()
		e.lastErr = err.Error()
		e.lastErrNs = time.Now().UnixNano()
		e.errMu.Unlock()
		return false
	}
	now := time.Now()
	e.sent.Add(int64(len(batch)))
	e.mSent.Add(int64(len(batch)))
	e.lastSuccessNs.Store(now.UnixNano())
	e.mLastOK.Set(float64(now.UnixMilli()))
	return true
}

// flush drains carried plus queued batches into one final bounded send
// attempt — the shutdown path. Undeliverable batches are counted as
// unflushed (and dropped) rather than retried: the process is exiting.
func (e *Exporter) flush(carried []Batch) {
	batch := carried
drain:
	for {
		select {
		case b := <-e.q:
			batch = append(batch, b)
		default:
			break drain
		}
	}
	e.mDepth.Set(0)
	if len(batch) == 0 {
		return
	}
	if !e.trySend(batch, e.opt.FlushTimeout) {
		e.unflushed.Add(int64(len(batch)))
		e.dropped.Add(int64(len(batch)))
		e.mDropped.Add(int64(len(batch)))
	}
}

// State is the /exportz document: pipeline configuration plus live
// counters, everything an operator needs to judge egress health.
type State struct {
	Enabled          bool    `json:"enabled"`
	Sink             string  `json:"sink,omitempty"`
	Format           string  `json:"format,omitempty"`
	Session          string  `json:"session,omitempty"`
	IntervalMs       int64   `json:"interval_ms,omitempty"`
	QueueLen         int     `json:"queue_len"`
	QueueCap         int     `json:"queue_cap"`
	NextSeq          uint64  `json:"next_seq"`
	Enqueued         int64   `json:"enqueued"`
	Sent             int64   `json:"sent"`
	SendFailures     int64   `json:"send_failures"`
	Retries          int64   `json:"retries"`
	Dropped          int64   `json:"dropped"`
	Unflushed        int64   `json:"unflushed,omitempty"`
	LastSuccessUnix  int64   `json:"last_success_unix_ms,omitempty"`
	LastSuccessAgeS  float64 `json:"last_success_age_s,omitempty"`
	LastError        string  `json:"last_error,omitempty"`
	LastErrorUnixMs  int64   `json:"last_error_unix_ms,omitempty"`
	SessionsExported int     `json:"sessions_exported"`
}

// State snapshots the pipeline. A nil exporter reports Enabled false.
func (e *Exporter) State() State {
	if e == nil {
		return State{}
	}
	st := State{
		// A tap-only exporter (nil sink) is not an enabled push
		// pipeline: nothing leaves the process through it.
		Enabled:    e.sink != nil,
		Format:     e.opt.Format,
		IntervalMs: e.opt.Interval.Milliseconds(),
		QueueLen:   len(e.q),
		QueueCap:   e.opt.QueueCap,
		NextSeq:    e.seq.Load() + 1,
		Enqueued:   e.enqueued.Load(),
		Sent:       e.sent.Load(),
		// A failure is one undelivered batch per attempt; the same batch
		// retried n times counts n.
		SendFailures: e.sendFails.Load(),
		Retries:      e.retries.Load(),
		Dropped:      e.dropped.Load(),
		Unflushed:    e.unflushed.Load(),
	}
	if e.sink != nil {
		st.Sink = e.sink.String()
	}
	if p := e.rootSess.Load(); p != nil {
		st.Session = *p
	}
	if ns := e.lastSuccessNs.Load(); ns > 0 {
		st.LastSuccessUnix = ns / 1e6
		st.LastSuccessAgeS = time.Since(time.Unix(0, ns)).Seconds()
	}
	e.errMu.Lock()
	st.LastError = e.lastErr
	if e.lastErrNs > 0 {
		st.LastErrorUnixMs = e.lastErrNs / 1e6
	}
	e.errMu.Unlock()
	e.diffMu.Lock()
	for id := range e.base {
		if id != "" {
			st.SessionsExported++
		}
	}
	e.diffMu.Unlock()
	return st
}

// HealthzLine renders the one-line /healthz status: queue occupancy,
// drop count, and last-success age. Empty on a nil exporter.
func (e *Exporter) HealthzLine() string {
	if e == nil || e.sink == nil {
		return ""
	}
	st := e.State()
	age := e.lastSuccessAge(time.Now())
	return "export: queue " + itoa(st.QueueLen) + "/" + itoa(st.QueueCap) +
		", sent " + itoa64(st.Sent) + ", dropped " + itoa64(st.Dropped) +
		", last success " + age.Truncate(time.Millisecond).String() + " ago"
}

func itoa(v int) string { return itoa64(int64(v)) }
func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
