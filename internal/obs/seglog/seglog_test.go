package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// formats are the two logs that share this framing; every frame-level
// test runs once per magic.
var formats = []struct {
	name string
	f    Format
}{
	{"flight", Format{Magic: [2]byte{0xF1, 0x7E}, Suffix: ".flr"}},
	{"tsdb", Format{Magic: [2]byte{0x75, 0xDB}, Suffix: ".tsq"}},
}

// forEachFormat runs fn as one subtest per format.
func forEachFormat(t *testing.T, fn func(t *testing.T, f Format)) {
	for _, tc := range formats {
		t.Run(tc.name, func(t *testing.T) { fn(t, tc.f) })
	}
}

// collect decodes data into (kind, payload) pairs plus stats.
func collect(t *testing.T, f Format, data []byte) ([]byte, [][]byte, Stats) {
	t.Helper()
	var kinds []byte
	var payloads [][]byte
	stats, err := f.Decode(data, func(kind byte, payload []byte) error {
		kinds = append(kinds, kind)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return kinds, payloads, stats
}

func TestFrameRoundTrip(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		var data []byte
		payloads := [][]byte{
			{},
			{0x01},
			append(f.Magic[:], f.Magic[:]...), // frame magic inside a payload is fine
			bytes.Repeat([]byte{0xAB}, 1000),
		}
		for i, p := range payloads {
			data = f.Append(data, byte(i+1), p)
		}
		kinds, got, stats := collect(t, f, data)
		if stats.Frames != len(payloads) || stats.Corrupt != 0 || stats.TornTail {
			t.Fatalf("stats = %+v", stats)
		}
		for i, p := range payloads {
			if kinds[i] != byte(i+1) || !bytes.Equal(got[i], p) {
				t.Errorf("frame %d: kind %d payload %x, want kind %d payload %x", i, kinds[i], got[i], i+1, p)
			}
		}
	})
}

// TestFrameTornTailEveryOffset truncates a log at every byte offset and
// checks the crash-recovery invariant: every complete frame still
// decodes, no truncation point yields a corrupt or phantom frame, and a
// cut inside a frame is flagged as a torn tail.
func TestFrameTornTailEveryOffset(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		var data []byte
		for i := 0; i < 5; i++ {
			data = f.Append(data, 3, bytes.Repeat([]byte{byte(i)}, 32+i))
		}
		if err := f.CheckTruncations(data); err != nil {
			t.Fatal(err)
		}
		// The check rejects what it cannot vouch for: a log that is not
		// clean to begin with.
		if err := f.CheckTruncations(append([]byte{0}, data...)); err == nil {
			t.Error("CheckTruncations accepted a log with a garbage prefix")
		}
	})
}

// TestTornTailHoldingMagic: a final frame whose payload holds the
// magic, cut anywhere after that magic, is a torn tail — a magic in the
// cut-off bytes does not prove a corrupt length field.
func TestTornTailHoldingMagic(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		data := f.Append(nil, 1, []byte("first"))
		start := len(data)
		payload := append(append([]byte("abc"), f.Magic[:]...), "defgh"...)
		data = f.Append(data, 2, payload)
		from := start + headerLen + 3 + len(f.Magic) // just past the magic
		for cut := from; cut < len(data); cut++ {
			kinds, _, stats := collect(t, f, data[:cut])
			if len(kinds) != 1 || !stats.TornTail || stats.Corrupt != 0 {
				t.Errorf("cut %d bytes into the frame: %d frames, %+v; want 1 frame, torn tail, 0 corrupt",
					cut-start, len(kinds), stats)
			}
		}
	})
}

// TestFrameCorruptMiddleResyncs flips each byte of a middle frame in
// turn and checks the decoder skips it, counts it, and recovers every
// later frame.
func TestFrameCorruptMiddleResyncs(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		mk := func() []byte {
			var data []byte
			for i := 0; i < 5; i++ {
				data = f.Append(data, 4, bytes.Repeat([]byte{0x20 + byte(i)}, 24))
			}
			return data
		}
		frameLen := 24 + overhead
		for off := 0; off < frameLen; off++ {
			data := mk()
			data[2*frameLen+off] ^= 0xFF // corrupt frame 2 (of 0..4)
			kinds, _, stats := collect(t, f, data)
			// Depending on the flipped byte the decoder loses exactly the
			// corrupt frame (CRC mismatch or broken magic); all four intact
			// frames must survive.
			if len(kinds) != 4 {
				t.Fatalf("flip at +%d: decoded %d frames, want 4 (stats %+v)", off, len(kinds), stats)
			}
			if stats.Resyncs == 0 {
				t.Errorf("flip at +%d: no resync counted: %+v", off, stats)
			}
			if stats.BytesSkipped == 0 {
				t.Errorf("flip at +%d: no skipped bytes counted: %+v", off, stats)
			}
		}
	})
}

// TestDecodeResyncsPastCorruption corrupts one byte inside a frame's
// payload: exactly that frame is lost and counted, and the frames on
// either side survive.
func TestDecodeResyncsPastCorruption(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		var buf []byte
		buf = f.Append(buf, 1, []byte("declare"))
		mid := len(buf)
		buf = f.Append(buf, 2, []byte("first block"))
		buf = f.Append(buf, 2, []byte("second block"))
		buf[mid+headerLen] ^= 0xFF
		_, payloads, stats := collect(t, f, buf)
		if stats.Corrupt != 1 || stats.Resyncs == 0 {
			t.Fatalf("stats: %+v", stats)
		}
		if want := [][]byte{[]byte("declare"), []byte("second block")}; !reflect.DeepEqual(payloads, want) {
			t.Fatalf("surviving payloads %q, want %q", payloads, want)
		}
	})
}

func TestFrameGarbagePrefixAndBetween(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		var data []byte
		data = append(data, []byte("not a frame at all")...)
		data = f.Append(data, 5, []byte{1, 2, 3})
		data = append(data, f.Magic[0], 0x00, 0xDE, 0xAD) // stray near-magic garbage
		data = f.Append(data, 5, []byte{4, 5, 6})
		kinds, payloads, stats := collect(t, f, data)
		if len(kinds) != 2 || !bytes.Equal(payloads[0], []byte{1, 2, 3}) || !bytes.Equal(payloads[1], []byte{4, 5, 6}) {
			t.Fatalf("decoded %d frames (%x), want the 2 real ones", len(kinds), payloads)
		}
		if stats.Resyncs == 0 || stats.BytesSkipped == 0 {
			t.Errorf("garbage not accounted: %+v", stats)
		}
	})
}

func TestFrameInsaneLength(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		// A frame header claiming a >16MiB payload is corrupt, not a torn
		// tail — the decoder must not wait for data that will never come.
		data := []byte{f.Magic[0], f.Magic[1], 3, 0xFF, 0xFF, 0xFF, 0xFF}
		data = append(data, bytes.Repeat([]byte{0}, 64)...)
		data = f.Append(data, 3, []byte{9})
		kinds, _, stats := collect(t, f, data)
		if len(kinds) != 1 || stats.Corrupt != 1 {
			t.Fatalf("kinds %v stats %+v, want 1 good frame and 1 corrupt", kinds, stats)
		}
	})
}

// TestMisfiledSegmentReadsEmpty decodes each log's frames with the
// other's Format: the differing magics make them zero frames.
func TestMisfiledSegmentReadsEmpty(t *testing.T) {
	a, b := formats[0].f, formats[1].f
	for _, pair := range [][2]Format{{a, b}, {b, a}} {
		data := pair[0].Append(nil, 1, []byte("payload"))
		if _, _, stats := collect(t, pair[1], data); stats.Frames != 0 {
			t.Errorf("%x read as %x: %+v, want zero frames", pair[0].Magic, pair[1].Magic, stats)
		}
	}
}

// TestSegmentFiles covers naming, exclusive creation and listing.
func TestSegmentFiles(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f Format) {
		dir := t.TempDir()
		if segs, err := f.List(filepath.Join(dir, "missing")); err != nil || segs != nil {
			t.Fatalf("List(missing) = %v, %v; want no segments", segs, err)
		}
		for _, seq := range []int{100000, 99999, 3} {
			w, err := f.Create(dir, seq)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(make([]byte, seq%7)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Names this format does not produce are not segments.
		for _, stray := range []string{"seg-old" + f.Suffix, "seg-1" + f.Suffix, "seg-+0004" + f.Suffix,
			"seg-00005.other", "seg-00006"} {
			if err := os.WriteFile(filepath.Join(dir, stray), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Mkdir(filepath.Join(dir, f.Name(7)), 0o755); err != nil {
			t.Fatal(err)
		}

		segs, err := f.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := []Segment{
			{filepath.Join(dir, "seg-00003"+f.Suffix), 3, 3},
			{filepath.Join(dir, "seg-99999"+f.Suffix), 99999, 99999 % 7},
			{filepath.Join(dir, "seg-100000"+f.Suffix), 100000, 100000 % 7},
		}
		if !reflect.DeepEqual(segs, want) {
			t.Fatalf("List = %+v\nwant   %+v", segs, want)
		}

		// A second writer of an existing segment fails without touching it.
		_, err = f.Create(dir, 3)
		if !errors.Is(err, fs.ErrExist) || !bytes.Contains([]byte(err.Error()), []byte(f.Name(3))) {
			t.Fatalf("Create over an existing segment: %v, want an exists error naming it", err)
		}
		if info, err := os.Stat(want[0].Path); err != nil || info.Size() != 3 {
			t.Fatalf("existing segment changed: %v %v", info, err)
		}
	})
}

// FuzzDecode drives the decoder with arbitrary bytes under both magics.
// Invariants: it never panics or over-reads, its skipped-byte count
// stays within the input, and every emitted frame re-frames to its own
// bytes.
func FuzzDecode(f *testing.F) {
	for _, tc := range formats {
		m := tc.f.Magic
		var good []byte
		good = tc.f.Append(good, 3, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		good = tc.f.Append(good, 4, nil)
		insane := binary.LittleEndian.AppendUint32([]byte{m[0], m[1], 3}, 0xFFFFFFFF)
		for _, s := range [][]byte{
			good,
			good[:len(good)-3],      // torn tail
			append(m[:], good...),   // stray magic prefix
			insane,                  // insane length
			bytes.Repeat(m[:1], 64), // a run of first magic bytes
			bytes.Repeat(m[:], 32),  // a run of magics
		} {
			f.Add(s)
		}
	}
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tc := range formats {
			stats, err := tc.f.Decode(data, func(kind byte, payload []byte) error {
				// payload aliases data, so its frame starts headerLen
				// bytes before it.
				start := cap(data) - cap(payload) - headerLen
				if reframed := tc.f.Append(nil, kind, payload); !bytes.Equal(reframed, data[start:start+len(reframed)]) {
					t.Fatalf("%s: frame at %d re-frames to %x, not itself", tc.name, start, reframed)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: Decode returned an emit error that was never raised: %v", tc.name, err)
			}
			if stats.Frames < 0 || stats.BytesSkipped < 0 || stats.BytesSkipped > int64(len(data)) {
				t.Fatalf("%s: implausible stats %+v for %d bytes", tc.name, stats, len(data))
			}
		}
	})
}
