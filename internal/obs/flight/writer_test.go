package flight

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRecorderGoldenRoundTrip writes one record of every kind and reads
// the run back, field by field.
func TestRecorderGoldenRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run-a")
	rec, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	man := &Manifest{
		Binary:      "pressctl",
		Scenario:    "demo",
		Seed:        42,
		StartUnixNs: 1700000000_000000000,
		GoVersion:   "go1.24.0",
		VCSRevision: "abc123",
		VCSTime:     "2026-08-06T00:00:00Z",
		VCSModified: true,
	}
	man.SetParams([]Param{{Key: "speed", Value: "0.5"}, {Key: "budget", Value: "38"}})
	rec.RecordManifest(man)
	rec.RecordActuation(SourceAgent, 77, []int{0, 3, -1})
	rec.RecordCSI([]float64{1.5, -2.25, math.Inf(-1), 30})
	rec.RecordCSI([]float64{4, 5})
	rec.RecordKPI("cond_db_median", 12.75)
	rec.RecordAlert("deep_null", 1, 2, 27.5)
	rec.RecordDecision(3, 41.125, true, []int{2, 2, 2})
	rec.RecordRuntime(RuntimeSample{
		HeapLiveBytes: 4 << 20, HeapGoalBytes: 8 << 20, Goroutines: 9,
		GCCycles: 12, GCPauseP50: 25e-6, GCPauseP99: 180e-6, SchedLatP99: 90e-6,
	})
	rec.RecordPhaseCost(PhaseCost{
		Phase: "channel_sum", Ns: 1_500_000, Calls: 64, Bytes: 4096,
		Aux: []AuxCount{{Name: "subcarrier_evals", Value: 3328}, {Name: "path_terms", Value: 99840}},
	})
	rec.RecordPhaseCost(PhaseCost{Phase: "actuate", Ns: 250_000, Calls: 64})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Records(); got != 10 {
		t.Errorf("Records() = %d, want 10", got)
	}

	run, err := ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Corrupt != 0 || run.Stats.TornTail || run.Stats.Frames != 10 {
		t.Errorf("decode stats = %+v", run.Stats)
	}

	m := run.Manifest
	if m == nil {
		t.Fatal("no manifest decoded")
	}
	// RecordManifest fills RunID, FormatVersion, Fingerprint.
	if m.RunID != "run-a" || m.FormatVersion != FormatVersion || m.Fingerprint == 0 {
		t.Errorf("manifest identity = %q/%d/%d", m.RunID, m.FormatVersion, m.Fingerprint)
	}
	if m.Binary != "pressctl" || m.Scenario != "demo" || m.Seed != 42 ||
		m.StartUnixNs != 1700000000_000000000 || m.GoVersion != "go1.24.0" ||
		m.VCSRevision != "abc123" || m.VCSTime != "2026-08-06T00:00:00Z" || !m.VCSModified {
		t.Errorf("manifest fields = %+v", m)
	}
	wantParams := []Param{{Key: "budget", Value: "38"}, {Key: "speed", Value: "0.5"}} // sorted
	if !reflect.DeepEqual(m.Params, wantParams) {
		t.Errorf("params = %v, want %v", m.Params, wantParams)
	}
	if m.Fingerprint != m.ComputeFingerprint() {
		t.Errorf("fingerprint %d does not recompute (%d)", m.Fingerprint, m.ComputeFingerprint())
	}

	if len(run.Actuations) != 1 {
		t.Fatalf("actuations = %+v", run.Actuations)
	}
	a := run.Actuations[0]
	if a.UnixNs == 0 || a.TraceID != 77 || a.Source != SourceAgent ||
		!reflect.DeepEqual(a.Config, []int32{0, 3, -1}) {
		t.Errorf("actuation = %+v", a)
	}

	if len(run.CSI) != 2 {
		t.Fatalf("csi = %+v", run.CSI)
	}
	if c := run.CSI[0]; c.Seq != 0 || !reflect.DeepEqual(c.SNRdB, []float64{1.5, -2.25, math.Inf(-1), 30}) {
		t.Errorf("csi[0] = %+v", c)
	}
	if c := run.CSI[1]; c.Seq != 1 || !reflect.DeepEqual(c.SNRdB, []float64{4, 5}) {
		t.Errorf("csi[1] = %+v", c)
	}

	if len(run.KPIs) != 1 || run.KPIs[0].Name != "cond_db_median" || run.KPIs[0].Value != 12.75 {
		t.Errorf("kpis = %+v", run.KPIs)
	}
	if len(run.Alerts) != 1 {
		t.Fatalf("alerts = %+v", run.Alerts)
	}
	if al := run.Alerts[0]; al.Rule != "deep_null" || al.From != 1 || al.To != 2 || al.Value != 27.5 {
		t.Errorf("alert = %+v", al)
	}
	if len(run.Decisions) != 1 {
		t.Fatalf("decisions = %+v", run.Decisions)
	}
	if d := run.Decisions[0]; d.Eval != 3 || d.Score != 41.125 || !d.Improved ||
		!reflect.DeepEqual(d.Config, []int32{2, 2, 2}) {
		t.Errorf("decision = %+v", d)
	}
	if len(run.Runtime) != 1 {
		t.Fatalf("runtime = %+v", run.Runtime)
	}
	if rt := run.Runtime[0]; rt.UnixNs == 0 || rt.HeapLiveBytes != 4<<20 ||
		rt.HeapGoalBytes != 8<<20 || rt.Goroutines != 9 || rt.GCCycles != 12 ||
		rt.GCPauseP50 != 25e-6 || rt.GCPauseP99 != 180e-6 || rt.SchedLatP99 != 90e-6 {
		t.Errorf("runtime sample = %+v", rt)
	}
	if len(run.PhaseCosts) != 2 {
		t.Fatalf("phase costs = %+v", run.PhaseCosts)
	}
	if p := run.PhaseCosts[0]; p.UnixNs == 0 || p.Phase != "channel_sum" ||
		p.Ns != 1_500_000 || p.Calls != 64 || p.Bytes != 4096 ||
		!reflect.DeepEqual(p.Aux, []AuxCount{{Name: "subcarrier_evals", Value: 3328}, {Name: "path_terms", Value: 99840}}) {
		t.Errorf("phase cost[0] = %+v", p)
	}
	if p := run.PhaseCosts[1]; p.Phase != "actuate" || p.Ns != 250_000 || p.Calls != 64 || len(p.Aux) != 0 {
		t.Errorf("phase cost[1] = %+v", p)
	}
}

// TestRecorderNilSafe exercises every producer method on a nil recorder.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.RecordManifest(&Manifest{})
	r.RecordActuation(SourceController, 0, []int{1})
	r.RecordCSI([]float64{1})
	r.RecordKPI("x", 1)
	r.RecordAlert("r", 0, 2, 1)
	r.RecordDecision(0, 1, false, nil)
	r.RecordRuntime(RuntimeSample{})
	if r.RunID() != "" || r.Dir() != "" || r.Err() != nil || r.Records() != 0 {
		t.Error("nil recorder accessors not zero-valued")
	}
	if err := r.Flush(); err != nil {
		t.Error(err)
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
}

// TestRecorderRotation drives a tiny segment threshold and checks
// records span multiple files that decode as one run.
func TestRecorderRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run-rot")
	rec, err := open(dir, 2<<10) // rotate every 2 KiB
	if err != nil {
		t.Fatal(err)
	}
	curve := make([]float64, 64)
	for i := range curve {
		curve[i] = float64(i)
	}
	const samples = 50
	for i := 0; i < samples; i++ {
		rec.RecordCSI(curve)
		if i%10 == 0 {
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation into ≥2 segments, got %v", segs)
	}
	run, err := ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.CSI) != samples {
		t.Fatalf("decoded %d CSI samples across %d segments, want %d", len(run.CSI), len(segs), samples)
	}
	for i, c := range run.CSI {
		if c.Seq != uint64(i) {
			t.Fatalf("csi[%d].Seq = %d: order lost across rotation", i, c.Seq)
		}
	}
}

// TestRecorderTornTailRecovery simulates a crash by truncating the last
// segment at every byte offset inside its final record: every preceding
// record must still decode.
func TestRecorderTornTailRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run-torn")
	rec, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		rec.RecordCSI([]float64{float64(i), float64(i) + 0.5})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, flightLog.Name(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// One CSI record frame: 8 (ts) + 8 (seq) + 4 (len) + 2*8 (curve), framed.
	recLen := len(flightLog.Append(nil, byte(KindCSI), make([]byte, 8+8+4+16)))
	last := len(data) - recLen
	for cut := last + 1; cut < len(data); cut++ {
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		run, err := ReadRun(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(run.CSI) != n-1 {
			t.Fatalf("cut at %d: %d records survive, want %d", cut, len(run.CSI), n-1)
		}
		for i, c := range run.CSI {
			if c.SNRdB[0] != float64(i) {
				t.Fatalf("cut at %d: record %d corrupted: %+v", cut, i, c)
			}
		}
	}
}

// TestRecorderGroupCommit checks Flush makes records durable before
// Close, i.e. a reader sees them while the recorder is still open.
func TestRecorderGroupCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run-gc")
	rec, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.RecordKPI("x", 1)
	rec.RecordKPI("y", 2)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	run, err := ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.KPIs) != 2 {
		t.Fatalf("reader sees %d KPIs after Flush, want 2", len(run.KPIs))
	}
}

func TestListRunsAndReadManifest(t *testing.T) {
	root := t.TempDir()
	mk := func(id string, start int64) {
		rec, err := Open(filepath.Join(root, id), 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.RecordManifest(&Manifest{Binary: "pressim", Scenario: "fig4", Seed: 7, StartUnixNs: start})
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mk("older", 100)
	mk("newer", 200)
	// A junk directory without segments must be skipped.
	if err := os.MkdirAll(filepath.Join(root, "junk"), 0o755); err != nil {
		t.Fatal(err)
	}
	runs, err := ListRuns(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].RunID != "newer" || runs[1].RunID != "older" {
		t.Fatalf("ListRuns = %+v", runs)
	}
	m, err := ReadManifest(filepath.Join(root, "older"))
	if err != nil {
		t.Fatal(err)
	}
	if m.RunID != "older" || m.Scenario != "fig4" {
		t.Errorf("ReadManifest = %+v", m)
	}
}

// TestOpenRefusesExistingRun opens a recorder on a directory that
// already holds a run: Open fails naming the segment, and the recorded
// bytes are untouched.
func TestOpenRefusesExistingRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run-once")
	rec, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec.RecordKPI("x", 1)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, flightLog.Name(0))
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	again, err := Open(dir, 0)
	if err == nil {
		again.Close()
		t.Fatal("Open over an existing run succeeded")
	}
	if !errors.Is(err, fs.ErrExist) || !strings.Contains(err.Error(), flightLog.Name(0)) {
		t.Errorf("Open error %q, want an exists error naming %s", err, flightLog.Name(0))
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("segment changed: %d bytes before, %d after", len(before), len(after))
	}
}
