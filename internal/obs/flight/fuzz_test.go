package flight

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrames drives a run's record decoding with arbitrary
// segment bytes: folding any frame the framing accepts into a run never
// panics. The framing's own invariants are fuzzed in internal/obs/seglog.
func FuzzDecodeFrames(f *testing.F) {
	var good []byte
	good = flightLog.Append(good, byte(KindCSI), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	good = flightLog.Append(good, byte(KindKPI), nil)

	var rec []byte
	e := &enc{}
	encodeManifest(e, &Manifest{Binary: "b", Scenario: "s", Seed: 9,
		Params: []Param{{Key: "k", Value: "v"}}})
	rec = flightLog.Append(rec, byte(KindManifest), e.b)

	seeds := [][]byte{
		nil,
		good,
		rec,
		good[:len(good)-3],                  // torn tail
		append([]byte{0xF1, 0x7E}, good...), // stray magic prefix
		{0xF1, 0x7E, 0x03, 0xFF, 0xFF, 0xFF, 0xFF}, // insane length
		bytes.Repeat([]byte{0xF1}, 64),
		bytes.Repeat([]byte{0xF1, 0x7E}, 32),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run := &Run{}
		_, _ = flightLog.Decode(data, func(kind byte, payload []byte) error {
			// Record decoders must reject or accept, never panic.
			run.apply(Kind(kind), payload)
			return nil
		})
	})
}

// FuzzDecodeManifest drives the record-level manifest decoder directly:
// any accepted payload must re-encode and decode to the same manifest.
func FuzzDecodeManifest(f *testing.F) {
	e := &enc{}
	encodeManifest(e, &Manifest{
		FormatVersion: FormatVersion, RunID: "r", Binary: "b", Scenario: "s",
		Seed: 1, Params: []Param{{Key: "a", Value: "1"}}, Fingerprint: 2,
		StartUnixNs: 3, GoVersion: "go", VCSRevision: "rev", VCSTime: "t", VCSModified: true,
	})
	f.Add(e.b)
	f.Add([]byte{})
	f.Add(e.b[:len(e.b)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeManifest(payload)
		if err != nil {
			return
		}
		e := &enc{}
		encodeManifest(e, m)
		m2, err := decodeManifest(e.b)
		if err != nil {
			t.Fatalf("accepted manifest did not re-decode: %v", err)
		}
		if m.Binary != m2.Binary || m.Seed != m2.Seed || len(m.Params) != len(m2.Params) {
			t.Fatalf("manifest round trip drifted: %+v vs %+v", m, m2)
		}
	})
}
