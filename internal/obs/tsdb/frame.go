// Package tsdb is the durable half of the metrics story: an embedded
// time-series store that makes the process its own collector. Every
// other obs surface is either live-but-volatile (registry scrapes,
// health rings, SSE) or durable-but-raw (flight segments of simulation
// events); tsdb persists the *metrics* themselves, so "how did null
// depth drift over the last hour" survives a restart without an
// external Prometheus.
//
// The store collects its own history: on a timer it diffs the root
// registry and every live session registry against per-source
// baselines (collect.go) into delta batches. Batches land in a
// bounded queue (non-blocking Offer; a rejected batch's deltas fold
// into the next one, so stored totals reconcile with the registries),
// are turned into samples — counters re-accumulated to cumulative totals, gauges as-is,
// histograms and spans as _count/_sum cumulative pairs — and appended
// to size-rotated segment files in the framed-log format of
// internal/obs/seglog, which the flight recorder shares: CRC32C frames,
// group-committed writes, torn tails tolerated, corruption resynced
// past rather than fatal. This package holds the frame payloads and its
// own tiered writer.
//
// Storage is tiered: raw samples are kept briefly, then downsampled
// into 10s and 1m resolution tiers with independent retention windows,
// so a day of history costs megabytes instead of gigabytes. A small
// query engine (instant + range, rate/increase/*_over_time functions,
// sum/avg/max/min cross-session roll-up) serves /query and
// /query_range in the Prometheus HTTP response shape, `pressctl
// query`, and the health dashboard's history panels.
//
// A nil *Store disables everything at the cost of a pointer check, the
// package-wide convention.
package tsdb

import (
	"encoding/binary"
	"math"

	"press/internal/obs/seglog"
)

// tsdbLog is the store's framing: frames start 75 DB, segments are
// seg-NNNNN.tsq. The magic differs from the flight recorder's so a
// segment misfiled into the other's directory reads as zero frames.
var tsdbLog = seglog.Format{Magic: [2]byte{0x75, 0xDB}, Suffix: ".tsq"}

// Frame kinds. Unknown kinds are skipped (forward compatibility).
const (
	// kindSeries declares a series within the current segment:
	// uvarint id, 1 byte series kind, uvarint-length session string,
	// uvarint-length name string. Every segment re-declares the series
	// it references, so segments stay individually decodable and
	// retention can delete any of them.
	kindSeries = 1
	// kindBlock is one timestamp's samples: uvarint unix-ms, uvarint
	// count, then count × (uvarint series id, 8-byte float64 bits).
	kindBlock = 2
	// kindWatermark records compaction progress in the *target* tier:
	// uvarint unix-ms up to which source windows have been compacted.
	// It exists so progress persists across restarts even through
	// windows that produced no samples.
	kindWatermark = 3
)

// Series kinds: how a series' values behave, which decides both the
// downsampling aggregate (last-cumulative vs mean) and what rate() may
// be applied to.
const (
	seriesCounter = 1 // monotone cumulative total (counters, hist/span _count/_sum)
	seriesGauge   = 2 // latest-value
)

// seriesKey identifies one series: which session's registry it came
// from ("" = the process root) and the metric name.
type seriesKey struct {
	session string
	name    string
}

// encodeSeriesDecl builds a kindSeries payload.
func encodeSeriesDecl(dst []byte, id uint32, kind byte, key seriesKey) []byte {
	dst = binary.AppendUvarint(dst, uint64(id))
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(key.session)))
	dst = append(dst, key.session...)
	dst = binary.AppendUvarint(dst, uint64(len(key.name)))
	dst = append(dst, key.name...)
	return dst
}

func decodeSeriesDecl(p []byte) (id uint32, kind byte, key seriesKey, ok bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 || v > math.MaxUint32 {
		return 0, 0, seriesKey{}, false
	}
	id = uint32(v)
	p = p[n:]
	if len(p) < 1 {
		return 0, 0, seriesKey{}, false
	}
	kind = p[0]
	p = p[1:]
	str := func() (string, bool) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return "", false
		}
		s := string(p[n : n+int(l)])
		p = p[n+int(l):]
		return s, true
	}
	var okk bool
	if key.session, okk = str(); !okk {
		return 0, 0, seriesKey{}, false
	}
	if key.name, okk = str(); !okk {
		return 0, 0, seriesKey{}, false
	}
	return id, kind, key, true
}

// blockSample is one (series, value) pair inside a block frame.
type blockSample struct {
	id uint32
	v  float64
}

// encodeBlock builds a kindBlock payload for one timestamp.
func encodeBlock(dst []byte, unixMs int64, samples []blockSample) []byte {
	dst = binary.AppendUvarint(dst, uint64(unixMs))
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	for _, s := range samples {
		dst = binary.AppendUvarint(dst, uint64(s.id))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.v))
	}
	return dst
}

// decodeBlock walks a kindBlock payload, emitting each sample.
func decodeBlock(p []byte, emit func(id uint32, unixMs int64, v float64)) bool {
	t, n := binary.Uvarint(p)
	if n <= 0 {
		return false
	}
	p = p[n:]
	cnt, n := binary.Uvarint(p)
	if n <= 0 {
		return false
	}
	p = p[n:]
	for i := uint64(0); i < cnt; i++ {
		id, n := binary.Uvarint(p)
		if n <= 0 || id > math.MaxUint32 {
			return false
		}
		p = p[n:]
		if len(p) < 8 {
			return false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[:8]))
		p = p[8:]
		emit(uint32(id), int64(t), v)
	}
	return true
}

func encodeWatermark(dst []byte, unixMs int64) []byte {
	return binary.AppendUvarint(dst, uint64(unixMs))
}

func decodeWatermark(p []byte) (int64, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, false
	}
	return int64(v), true
}
