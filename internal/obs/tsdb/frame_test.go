package tsdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"press/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	buf = tsdbLog.Append(buf, kindSeries, encodeSeriesDecl(nil, 7, seriesCounter, seriesKey{"room1", "req_total"}))
	buf = tsdbLog.Append(buf, kindBlock, encodeBlock(nil, 1234, []blockSample{{7, 42.5}}))
	buf = tsdbLog.Append(buf, kindWatermark, encodeWatermark(nil, 5678))
	var got []struct {
		key seriesKey
		t   int64
		v   float64
	}
	wm, stats := scanFrames(buf, func(key seriesKey, kind byte, unixMs int64, v float64) {
		if kind != seriesCounter {
			t.Fatalf("kind = %d", kind)
		}
		got = append(got, struct {
			key seriesKey
			t   int64
			v   float64
		}{key, unixMs, v})
	})
	if stats.Frames != 3 || stats.Corrupt != 0 || stats.TornTail {
		t.Fatalf("stats: %+v", stats)
	}
	if wm != 5678 {
		t.Fatalf("wm = %d", wm)
	}
	if len(got) != 1 || got[0].key != (seriesKey{"room1", "req_total"}) || got[0].t != 1234 || got[0].v != 42.5 {
		t.Fatalf("samples: %+v", got)
	}
}

// TestTornTailEveryTruncation is the kill -9 guarantee: a segment cut
// at ANY byte offset must decode its intact prefix — every complete
// frame survives, only the torn final frame is lost and is flagged as a
// torn tail, no phantom corrupt frame appears — and opening the store
// over the truncated file succeeds.
func TestTornTailEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, false)
	base := time.Now().UnixMilli()
	for i := 0; i < 20; i++ {
		feed(t, s, Batch{
			UnixMs:   base + int64(i)*1000,
			Counters: map[string]int64{"req_total": 1},
			Gauges:   map[string]float64{"depth_db": float64(i)},
		})
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "raw", "*"+tsdbLog.Suffix))
	if len(segs) != 1 {
		t.Fatalf("want 1 raw segment, got %v", segs)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fullSamples := 0
	scanFrames(whole, func(_ seriesKey, _ byte, _ int64, _ float64) { fullSamples++ })
	if fullSamples != 40 {
		t.Fatalf("full decode: %d samples, want 40", fullSamples)
	}

	if err := tsdbLog.CheckTruncations(whole); err != nil {
		t.Fatal(err)
	}

	// A truncated store still opens and serves what survived.
	cut := len(whole) - len(whole)/3
	if err := os.WriteFile(segs[0], whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer s2.Close()
	if !s2.openStats.TornTail && s2.openStats.Frames == 0 {
		t.Fatalf("open stats: %+v", s2.openStats)
	}
	samples, err := s2.Instant("req_total", time.UnixMilli(base+19_000))
	if err != nil || len(samples) != 1 {
		t.Fatalf("query over torn store: %v %+v", err, samples)
	}
	if samples[0].V <= 0 || samples[0].V > 20 {
		t.Fatalf("torn-store total = %v", samples[0].V)
	}
}

// TestGoldenSegment pins the on-disk format byte for byte. The raw
// segment in testdata/golden was written before the framing moved to
// internal/obs/seglog: it must decode to the series, samples and
// watermark it was written with, and re-framing its frames must rebuild
// the file exactly.
func TestGoldenSegment(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", tsdbLog.Name(1)))
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		key  seriesKey
		kind byte
		t    int64
		v    float64
	}
	var got []sample
	wm, stats := scanFrames(data, func(key seriesKey, kind byte, unixMs int64, v float64) {
		got = append(got, sample{key, kind, unixMs, v})
	})
	key := seriesKey{"room1", "req_total"}
	want := []sample{{key, seriesCounter, 1_760_000_000_000, 5}, {key, seriesCounter, 1_760_000_001_000, 8.5}}
	if !reflect.DeepEqual(got, want) || wm != 1_760_000_001_000 {
		t.Fatalf("golden segment decoded as %+v (watermark %d), want %+v", got, wm, want)
	}
	if stats.Frames != 4 || stats.Corrupt != 0 || stats.Unknown != 0 || stats.TornTail {
		t.Fatalf("stats: %+v", stats)
	}

	var reframed []byte
	_, _ = tsdbLog.Decode(data, func(kind byte, payload []byte) error {
		reframed = tsdbLog.Append(reframed, kind, payload)
		return nil
	})
	if !bytes.Equal(reframed, data) {
		t.Errorf("re-framed golden segment differs from the file:\n%x\n%x", reframed, data)
	}
}

// FuzzScanFrames feeds arbitrary bytes to the segment scanner, and so
// to the series-declaration, block and watermark payload decoders:
// none may panic or over-read, and decode stats stay plausible.
func FuzzScanFrames(f *testing.F) {
	var good []byte
	good = tsdbLog.Append(good, kindSeries, encodeSeriesDecl(nil, 7, seriesCounter, seriesKey{"room1", "req_total"}))
	good = tsdbLog.Append(good, kindBlock, encodeBlock(nil, 1234, []blockSample{{7, 42.5}, {8, 1}}))
	good = tsdbLog.Append(good, kindWatermark, encodeWatermark(nil, 5678))
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(tsdbLog.Append(nil, kindSeries, []byte{0x80}))                     // truncated uvarint id
	f.Add(tsdbLog.Append(nil, kindBlock, []byte{1, 0xFF, 0xFF, 0xFF, 0x7F})) // huge sample count
	f.Fuzz(func(t *testing.T, data []byte) {
		_, stats := scanFrames(data, func(seriesKey, byte, int64, float64) {})
		if stats.Frames < 0 || stats.Corrupt < 0 || stats.BytesSkipped > int64(len(data)) {
			t.Fatalf("implausible stats %+v for %d bytes", stats, len(data))
		}
	})
}
