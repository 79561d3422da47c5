// Package health is the domain-telemetry layer over internal/obs: where
// the obs registry counts generic events (frames, evaluations, solves),
// this package watches the *physics* the paper argues from — per-
// subcarrier SNR curves, null depth and drift, the 2×2 MIMO condition
// number, search regret, control-plane staleness — as bounded time
// series, evaluates alert rules over them with a pending→firing→resolved
// state machine, and serves a zero-dependency live dashboard.
//
// Like obs, everything is nil-safe: a nil *Monitor discards every
// observation, so producers (radio links, the instrumented searcher, the
// control-plane agent) feed it unconditionally and pay one pointer check
// when health telemetry is off — the default.
package health

// Point is one timestamped KPI reading.
type Point struct {
	UnixMs int64   `json:"unix_ms"`
	Value  float64 `json:"value"`
}

// ring is a bounded buffer, oldest overwritten: the store behind every
// KPI series and the SNR spectrogram. It is not safe for concurrent use
// on its own; the Monitor's lock guards it.
type ring[T any] struct {
	buf   []T
	next  int // next write slot
	count int // filled slots, ≤ len(buf)
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// at returns the i-th buffered item, oldest first.
func (r *ring[T]) at(i int) T {
	return r.buf[(r.next-r.count+i+len(r.buf))%len(r.buf)]
}

// items returns the buffered items, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, r.count)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// lastValues appends the values of the most recent n points of s to dst
// (oldest of the n first) and returns it; fewer than n are appended when
// the series is shorter.
func lastValues(s *ring[Point], n int, dst []float64) []float64 {
	for i := max(s.count-n, 0); i < s.count; i++ {
		dst = append(dst, s.at(i).Value)
	}
	return dst
}

// SpectrogramRow is one sampled per-subcarrier SNR curve — a row of the
// dashboard's SNR spectrogram.
type SpectrogramRow struct {
	UnixMs int64     `json:"unix_ms"`
	SNRdB  []float64 `json:"snr_db"`
}
