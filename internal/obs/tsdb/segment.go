package tsdb

import (
	"os"
	"time"

	"press/internal/obs/seglog"
)

// Resolution tiers. Raw samples arrive at the collection interval
// (typically 1s); compaction folds them into 10s and 1m tiers with
// progressively longer retention.
const (
	tierRaw = iota
	tier10s
	tier1m
	numTiers
)

var tierNames = [numTiers]string{"raw", "10s", "1m"}

// tierStep is the downsampling window of each compacted tier in ms.
var tierStep = [numTiers]int64{0, 10_000, 60_000}

// segInfo is one sealed (immutable) segment's index entry: enough to
// decide overlap with a query range and to enforce retention without
// reading the file.
type segInfo struct {
	seglog.Segment
	minT, maxT int64 // unix ms; 0,0 when the segment holds no samples
}

// tierState is one tier's on-disk state: its sealed segment index plus
// the open segment being appended to (writers only).
type tierState struct {
	dir    string
	sealed []segInfo

	// Writer state (nil file in read-only mode).
	f        *os.File
	seq      int
	size     int64
	buf      []byte          // group-commit buffer: encoded frames not yet written
	declared map[uint32]bool // series declared in the open segment
	minT     int64
	maxT     int64
	openedAt time.Time
}

// scanSegment decodes one segment file, emitting every sample with its
// series identity resolved through the segment-local declaration table,
// and returns the max watermark frame seen plus decode stats. Decode
// never fails on corruption; only I/O errors are returned.
func scanSegment(path string, emit func(key seriesKey, kind byte, unixMs int64, v float64)) (wm int64, stats seglog.Stats, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, stats, err
	}
	wm, stats = scanFrames(data, emit)
	return wm, stats, nil
}

// scanFrames is scanSegment over an in-memory byte run (also used for
// the unflushed group-commit buffer).
func scanFrames(data []byte, emit func(key seriesKey, kind byte, unixMs int64, v float64)) (wm int64, stats seglog.Stats) {
	local := map[uint32]struct {
		key  seriesKey
		kind byte
	}{}
	stats, _ = tsdbLog.Decode(data, func(kind byte, payload []byte) error {
		switch kind {
		case kindSeries:
			if id, sk, key, ok := decodeSeriesDecl(payload); ok {
				local[id] = struct {
					key  seriesKey
					kind byte
				}{key, sk}
			} else {
				stats.Corrupt++
			}
		case kindBlock:
			if !decodeBlock(payload, func(id uint32, t int64, v float64) {
				if d, ok := local[id]; ok && emit != nil {
					emit(d.key, d.kind, t, v)
				}
			}) {
				stats.Corrupt++
			}
		case kindWatermark:
			if w, ok := decodeWatermark(payload); ok && w > wm {
				wm = w
			} else if !ok {
				stats.Corrupt++
			}
		default:
			stats.Unknown++
		}
		return nil
	})
	return wm, stats
}

// openWriter opens a fresh segment for appending. The previous process'
// last segment is always sealed as-is — appending after a torn tail
// would bury valid frames behind garbage.
func (ts *tierState) openWriter(now time.Time) error {
	seq := 1
	if n := len(ts.sealed); n > 0 {
		seq = ts.sealed[n-1].Seq + 1
	}
	f, err := tsdbLog.Create(ts.dir, seq)
	if err != nil {
		return err
	}
	ts.f = f
	ts.seq = seq
	ts.size = 0
	ts.buf = ts.buf[:0]
	ts.declared = map[uint32]bool{}
	ts.minT, ts.maxT = 0, 0
	ts.openedAt = now
	return nil
}

// note records a sample timestamp landing in the open segment.
func (ts *tierState) note(unixMs int64) {
	if ts.minT == 0 || unixMs < ts.minT {
		ts.minT = unixMs
	}
	if unixMs > ts.maxT {
		ts.maxT = unixMs
	}
}

// flush writes the group-commit buffer through to the file (no fsync —
// rotation and close sync; between those, the OS page cache is the
// bound on loss, same stance as flight).
func (ts *tierState) flush() error {
	if ts.f == nil || len(ts.buf) == 0 {
		return nil
	}
	n, err := ts.f.Write(ts.buf)
	ts.size += int64(n)
	ts.buf = ts.buf[:0]
	return err
}

// seal flushes, fsyncs, and closes the open segment, moving it to the
// sealed index. A segment that never saw a frame is deleted instead.
func (ts *tierState) seal() error {
	if ts.f == nil {
		return nil
	}
	err := ts.flush()
	if ts.size == 0 {
		ts.f.Close()
		os.Remove(ts.f.Name())
		ts.f = nil
		return err
	}
	if serr := ts.f.Sync(); err == nil {
		err = serr
	}
	if cerr := ts.f.Close(); err == nil {
		err = cerr
	}
	ts.sealed = append(ts.sealed, segInfo{
		Segment: seglog.Segment{Path: ts.f.Name(), Seq: ts.seq, Size: ts.size},
		minT:    ts.minT, maxT: ts.maxT,
	})
	ts.f = nil
	return err
}

// rotateIfNeeded seals and reopens the segment once it exceeds the size
// budget or has been open longer than maxAge. Age-based rotation exists
// for retention: only sealed segments can be deleted, so a slow tier
// must still seal often enough for its window to move.
func (ts *tierState) rotateIfNeeded(now time.Time, maxBytes int64, maxAge time.Duration) error {
	if ts.f == nil {
		return nil
	}
	if ts.size+int64(len(ts.buf)) < maxBytes && (ts.size == 0 || now.Sub(ts.openedAt) < maxAge) {
		return nil
	}
	if err := ts.seal(); err != nil {
		return err
	}
	return ts.openWriter(now)
}

// enforceRetention deletes sealed segments whose newest sample is older
// than the cutoff. Returns bytes and segments removed.
func (ts *tierState) enforceRetention(cutoffMs int64) (bytes int64, segs int) {
	keep := ts.sealed[:0]
	for _, s := range ts.sealed {
		if s.maxT != 0 && s.maxT < cutoffMs {
			os.Remove(s.Path)
			bytes += s.Size
			segs++
			continue
		}
		keep = append(keep, s)
	}
	ts.sealed = keep
	return bytes, segs
}

// diskBytes is the tier's current on-disk footprint (sealed + open).
func (ts *tierState) diskBytes() int64 {
	total := ts.size
	for _, s := range ts.sealed {
		total += s.Size
	}
	return total
}

func (ts *tierState) segments() int {
	n := len(ts.sealed)
	if ts.f != nil {
		n++
	}
	return n
}
