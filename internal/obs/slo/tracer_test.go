package slo

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.SetDeadline(time.Second)
	if tr.Deadline() != 0 {
		t.Error("nil tracer has a deadline")
	}
	l := tr.StartLoop("loop")
	if l != nil || tr.Current() != nil {
		t.Fatal("nil tracer handed out a loop")
	}
	// Every method on the nil loop/span chain must no-op.
	sp := l.Phase("sense")
	sp.Child("x").End()
	sp.End()
	l.Child("y").End()
	if l.Trace() != 0 || l.Seq() != 0 || l.Deadline() != 0 {
		t.Error("nil loop leaks identity")
	}
	if st := l.End(); st != (Stats{}) {
		t.Errorf("nil loop End = %+v", st)
	}
	rep := tr.Snapshot()
	if rep.Loops != 0 || len(rep.Slowest) != 0 {
		t.Errorf("nil tracer snapshot = %+v", rep)
	}
	w := httptest.NewRecorder()
	tr.ServeTracez(w, httptest.NewRequest("GET", "/tracez", nil))
	if w.Code != 200 {
		t.Errorf("nil tracer /tracez status %d", w.Code)
	}
}

func TestLoopSpanTree(t *testing.T) {
	tr := NewTracer(obs.NewRegistry(), Config{Deadline: time.Minute})
	l := tr.StartLoop("iteration")
	if tr.Current() != l {
		t.Fatal("StartLoop did not become Current")
	}
	if l.Trace() == 0 || l.Seq() != 1 || l.Deadline() != time.Minute {
		t.Fatalf("loop identity: trace=%#x seq=%d deadline=%v", l.Trace(), l.Seq(), l.Deadline())
	}

	sense := l.Phase("sense")
	l.Child("measure").End() // attaches under the open sense phase
	sense.End()
	l.Child("orphan").End() // no open phase: attaches to the root
	act := l.Phase("actuate")
	ack := act.Child("ack") // explicit span parenting
	ack.End()
	act.End()

	st := l.End()
	if st.Missed || st.Latency <= 0 || st.Slack <= 0 {
		t.Errorf("fast loop misjudged: %+v", st)
	}
	if tr.Current() != nil {
		t.Error("ended loop still Current")
	}

	byName := map[string]SpanNode{}
	for _, sp := range l.spans {
		byName[sp.Name] = sp
	}
	wantParent := map[string]string{
		"sense": "iteration", "measure": "sense", "orphan": "iteration",
		"actuate": "iteration", "ack": "actuate",
	}
	for child, parent := range wantParent {
		c, ok := byName[child]
		if !ok {
			t.Fatalf("span %q missing from tree", child)
		}
		if byName[parent].ID != c.Parent {
			t.Errorf("span %q parent = #%d, want %q (#%d)", child, c.Parent, parent, byName[parent].ID)
		}
	}
	if byName["iteration"].ID != rootSpanID || byName["iteration"].Parent != 0 {
		t.Errorf("root span malformed: %+v", byName["iteration"])
	}
	if byName["iteration"].DurNs != int64(st.Latency) {
		t.Error("root span duration != loop latency")
	}
}

func TestLoopSpanCap(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, Config{MaxSpans: 4})
	l := tr.StartLoop("loop")
	for i := 0; i < 10; i++ {
		l.Child("c").End()
	}
	l.End()
	if n := len(l.spans); n != 4 {
		t.Errorf("span tree has %d nodes, cap 4", n)
	}
	if v := reg.Counter("slo_spans_dropped_total").Value(); v != 7 {
		t.Errorf("slo_spans_dropped_total = %d, want 7", v)
	}
}

func TestLoopEndFansOut(t *testing.T) {
	reg := obs.NewRegistry()
	mon := health.NewMonitor(nil, nil, time.Hour)
	dir := filepath.Join(t.TempDir(), "run-1")
	rec, err := flight.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(reg, Config{Deadline: time.Nanosecond, Flight: rec, Health: mon})

	l := tr.StartLoop("slow")
	l.Phase("search").End()
	time.Sleep(time.Millisecond)
	st := l.End()
	if !st.Missed {
		t.Fatalf("1ns deadline not missed: %+v", st)
	}

	if v := reg.Counter("slo_loops_total").Value(); v != 1 {
		t.Errorf("slo_loops_total = %d", v)
	}
	if v := reg.Counter("slo_deadline_miss_total").Value(); v != 1 {
		t.Errorf("slo_deadline_miss_total = %d", v)
	}
	// The latency histogram carries the loop's trace as an exemplar.
	_, trace, ok := reg.Histogram("slo_loop_latency_seconds", obs.LatencyBuckets).Exemplar()
	if !ok || trace != l.Trace() {
		t.Errorf("latency exemplar trace = %#x ok=%v, want %#x", trace, ok, l.Trace())
	}

	// Health: the loop KPIs appear on the next sample.
	mon.Sample()
	if pts := mon.Snapshot().Series[health.KPILoopMissRatio]; len(pts) != 1 || pts[0].Value != 1 {
		t.Errorf("loop_miss_ratio series = %+v", pts)
	}

	// Flight: the run decodes with one KindLoop frame.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Loops) != 1 {
		t.Fatalf("decoded %d loop records", len(run.Loops))
	}
	lr := run.Loops[0]
	if lr.TraceID != l.Trace() || !lr.Missed || lr.Name != "slow" || lr.Seq != 1 {
		t.Errorf("loop record = %+v", lr)
	}
	if len(lr.Phases) != 1 || lr.Phases[0].Name != "search" {
		t.Errorf("loop record phases = %+v", lr.Phases)
	}
}

func TestReservoirTailSampling(t *testing.T) {
	var r reservoir
	r.init(2, 2)
	mk := func(lat int64, missed bool) *Exemplar {
		return &Exemplar{LatencyNs: lat, Missed: missed, TraceID: uint64(lat)}
	}
	r.offer(mk(10, false))
	r.offer(mk(50, false))
	r.offer(mk(30, false)) // slower than nothing retained? no: 10 evicted
	r.offer(mk(5, false))  // too fast, dropped
	slow := r.slowest()
	if len(slow) != 2 || slow[0].LatencyNs != 50 || slow[1].LatencyNs != 30 {
		t.Errorf("slowest = %v, want [50 30]", []int64{slow[0].LatencyNs, slow[1].LatencyNs})
	}
	r.offer(mk(100, true))
	r.offer(mk(101, true))
	r.offer(mk(102, true)) // ring wraps: 100 evicted
	miss := r.misses()
	if len(miss) != 2 || miss[0].LatencyNs != 102 || miss[1].LatencyNs != 101 {
		t.Errorf("misses = %+v, want [102 101]", miss)
	}
}

// TestTracerStopFreezesReservoir: after Stop, ending loops still score
// (counters, health) but no longer replace retained exemplars, so a
// /tracez reader during teardown sees a quiescent set.
func TestTracerStopFreezesReservoir(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, Config{Deadline: time.Nanosecond})
	l := tr.StartLoop("before")
	time.Sleep(50 * time.Microsecond)
	l.End()
	tr.Stop()
	l = tr.StartLoop("after")
	time.Sleep(50 * time.Microsecond)
	l.End()

	rep := tr.Snapshot()
	if rep.Loops != 2 {
		t.Errorf("Loops = %d, want 2 (scoring continues past Stop)", rep.Loops)
	}
	for _, ex := range append(rep.Slowest, rep.MissExemplars...) {
		if ex.Name == "after" {
			t.Errorf("reservoir accepted exemplar %q after Stop", ex.Name)
		}
	}
	tr.Stop() // idempotent
}

func TestTracezReport(t *testing.T) {
	tr := NewTracer(nil, Config{Deadline: time.Nanosecond})
	l := tr.StartLoop("loop")
	l.Phase("sense").End()
	time.Sleep(100 * time.Microsecond)
	l.End()

	rep := tr.Snapshot()
	if rep.Loops != 1 || rep.Misses != 1 || rep.MissRatio != 1 {
		t.Fatalf("report totals: %+v", rep)
	}
	if len(rep.MissExemplars) != 1 || len(rep.Slowest) != 1 {
		t.Fatalf("report exemplars: %+v", rep)
	}
	ex := rep.MissExemplars[0]
	if ex.TraceID != obs.FormatTraceID(l.Trace()) {
		t.Errorf("exemplar trace = %q", ex.TraceID)
	}
	if len(ex.Spans) != 2 {
		t.Errorf("exemplar spans = %+v", ex.Spans)
	}

	// The JSON endpoint round-trips, and the chrome export is a valid
	// trace-event document containing the phase span.
	w := httptest.NewRecorder()
	tr.ServeTracez(w, httptest.NewRequest("GET", "/tracez", nil))
	var decoded Report
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/tracez JSON: %v\n%s", err, w.Body.String())
	}
	if decoded.Misses != 1 || len(decoded.MissExemplars) != 1 {
		t.Errorf("decoded report: %+v", decoded)
	}

	w = httptest.NewRecorder()
	tr.ServeTracez(w, httptest.NewRequest("GET", "/tracez?format=chrome", nil))
	body := w.Body.String()
	if !strings.Contains(body, `"ph":"X"`) || !strings.Contains(body, `"sense"`) {
		t.Errorf("chrome export missing spans: %s", body)
	}
}

func TestTracerSetDeadline(t *testing.T) {
	tr := NewTracer(nil, Config{})
	if tr.Deadline() != 0 {
		t.Fatal("unset deadline non-zero")
	}
	// No deadline: loops are timed but never missed.
	l := tr.StartLoop("free")
	if st := l.End(); st.Missed || st.Slack != 0 {
		t.Errorf("deadline-free loop: %+v", st)
	}
	tr.SetDeadline(8 * time.Millisecond)
	if tr.Deadline() != 8*time.Millisecond {
		t.Fatal("SetDeadline lost")
	}
	if l := tr.StartLoop("bounded"); l.Deadline() != 8*time.Millisecond {
		t.Errorf("loop deadline = %v", l.Deadline())
	}
}

// BenchmarkNilTracerLoop is the disabled-path cost the repository's
// telemetry convention promises: pointer checks only, 0 allocs/op
// (gate-enforced via BENCH_slo.json).
func BenchmarkNilTracerLoop(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := tr.StartLoop("loop")
		ph := l.Phase("sense")
		l.Child("measure").End()
		ph.End()
		l.End()
		if tr.Current() != nil {
			b.Fatal("nil tracer current")
		}
	}
}

// BenchmarkTracerLoop is the enabled-path reference cost.
func BenchmarkTracerLoop(b *testing.B) {
	tr := NewTracer(obs.NewRegistry(), Config{Deadline: time.Second})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := tr.StartLoop("loop")
		ph := l.Phase("sense")
		l.Child("measure").End()
		ph.End()
		l.End()
	}
}
