package obs

import "sync"

// Lifecycle is the shared start/stop state machine behind every
// background sampler in the telemetry stack (the obs.Server /events
// sample tick, health.Monitor, perf.Sampler, the flight log's
// group-commit loop, the scope CLI's phase-cost flusher). Each of
// those used to hand-roll the same pair of sync.Onces with subtly
// different edge-case behaviour; this type makes the contract uniform:
//
//   - Start runs at most once; later calls are no-ops.
//   - Stop is idempotent, waits for the background goroutine to exit,
//     and is safe even when Start was never called.
//   - Start after Stop is a no-op (a stopped component stays stopped —
//     restarting would race teardown done by the first Stop).
//
// The zero value is ready to use. All methods are safe for concurrent
// use from multiple goroutines.
type Lifecycle struct {
	initOnce  sync.Once
	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

func (l *Lifecycle) init() {
	l.initOnce.Do(func() {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
	})
}

// Start runs setup synchronously (first-sample semantics: a scrape
// right after Start must already see one record), then launches run in
// a background goroutine. run receives the stop channel and must return
// when it closes. Either func may be nil. Start reports whether this
// call won the once — i.e. whether setup actually ran.
func (l *Lifecycle) Start(setup func(), run func(stop <-chan struct{})) bool {
	l.init()
	started := false
	l.startOnce.Do(func() {
		started = true
		select {
		case <-l.stop:
			// Stop already happened: stay stopped. We won the startOnce,
			// so closing done is on us — a concurrent Stop may already be
			// waiting on it.
			started = false
			close(l.done)
			return
		default:
		}
		if setup != nil {
			setup()
		}
		go func() {
			defer close(l.done)
			if run != nil {
				run(l.stop)
			}
		}()
	})
	return started
}

// Stop signals the background goroutine and waits for it to exit.
// Idempotent; safe before or without Start.
func (l *Lifecycle) Stop() {
	l.init()
	l.stopOnce.Do(func() { close(l.stop) })
	// If Start never ran (or ran after Stop and bailed out), consume the
	// startOnce so done gets closed exactly once and the wait below
	// cannot hang.
	l.startOnce.Do(func() { close(l.done) })
	<-l.done
}

// Stopping returns the stop channel, closed once Stop has been called —
// for components whose inner loops need to poll stop state outside the
// run callback. Never nil.
func (l *Lifecycle) Stopping() <-chan struct{} {
	l.init()
	return l.stop
}

// Stopped reports whether Stop has been called — the polling form of
// Stopping, for hot paths that gate one operation rather than a loop.
func (l *Lifecycle) Stopped() bool {
	l.init()
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}
