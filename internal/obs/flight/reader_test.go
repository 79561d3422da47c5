package flight

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestGoldenSegment pins the on-disk format byte for byte. The segment
// in testdata/golden was written before the framing moved to
// internal/obs/seglog: it must decode to the records it was written
// with, re-framing its frames must rebuild the file exactly, and it
// must keep its torn-tail guarantees at every truncation.
func TestGoldenSegment(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	run, err := ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &Run{
		Dir: dir,
		Manifest: &Manifest{
			FormatVersion: 1, RunID: "golden", Binary: "pressim", Scenario: "fig4", Seed: 7,
			Params:      []Param{{Key: "placements", Value: "2"}, {Key: "trials", Value: "2"}},
			Fingerprint: 0xabd22bdf90ec80fb,
			StartUnixNs: 1_760_000_000_000_000_000, GoVersion: "go1.22.0", VCSRevision: "e932f93",
		},
		Actuations: []Actuation{{UnixNs: 1_760_000_000_000_001_000, TraceID: 0xABCD, Source: SourceAgent,
			Config: []int32{0, 3, 1, 2}}},
		CSI: []CSISample{
			{UnixNs: 1_760_000_000_000_002_000, Seq: 0, SNRdB: []float64{12.5, -3.25, 0, 41.75}},
			{UnixNs: 1_760_000_000_000_003_000, Seq: 1, SNRdB: []float64{13.5, -3.25, 0, 41.75}},
		},
		Decisions: []SearchDecision{{UnixNs: 1_760_000_000_000_004_000, Eval: 5, Score: 17.375, Improved: true,
			Config: []int32{3, 1, 2, 0}}},
	}
	want.Stats.Frames = 5
	if !reflect.DeepEqual(run.Manifest, want.Manifest) {
		t.Fatalf("golden manifest decoded as\n%+v\nwant\n%+v", run.Manifest, want.Manifest)
	}
	if !reflect.DeepEqual(run, want) {
		t.Fatalf("golden run decoded as\n%+v\nwant\n%+v", run, want)
	}

	data, err := os.ReadFile(filepath.Join(dir, flightLog.Name(0)))
	if err != nil {
		t.Fatal(err)
	}
	var reframed []byte
	_, _ = flightLog.Decode(data, func(kind byte, payload []byte) error {
		reframed = flightLog.Append(reframed, kind, payload)
		return nil
	})
	if !bytes.Equal(reframed, data) {
		t.Errorf("re-framed golden segment differs from the file:\n%x\n%x", reframed, data)
	}
	if err := flightLog.CheckTruncations(data); err != nil {
		t.Error(err)
	}
}

// TestReadRunSequenceOrder reads segments in numeric sequence order —
// seg-100000 follows seg-99999, though it sorts before it as a string —
// and ignores files the writer never names, such as seg-old.flr.
func TestReadRunSequenceOrder(t *testing.T) {
	dir := t.TempDir()
	kpi := func(name string, v float64) []byte {
		e := &enc{}
		e.i64(1)
		e.str(name)
		e.f64(v)
		return flightLog.Append(nil, byte(KindKPI), e.b)
	}
	for file, data := range map[string][]byte{
		"seg-99999.flr":  kpi("first", 1),
		"seg-100000.flr": kpi("second", 2),
		"seg-old.flr":    kpi("stray", 3),
	} {
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run, err := ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []KPISample{{UnixNs: 1, Name: "first", Value: 1}, {UnixNs: 1, Name: "second", Value: 2}}
	if !reflect.DeepEqual(run.KPIs, want) || run.Stats.Frames != 2 {
		t.Fatalf("KPIs %+v (stats %+v), want %+v", run.KPIs, run.Stats, want)
	}
}
