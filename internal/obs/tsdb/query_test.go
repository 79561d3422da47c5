package tsdb

import (
	"testing"
	"time"
)

func TestParseExpr(t *testing.T) {
	good := []struct {
		in   string
		want expr
	}{
		{"req_total", expr{sel: selParams{name: "req_total"}}},
		{`req_total{session="room1"}`, expr{sel: selParams{name: "req_total", session: "room1", sessionFiltered: true}}},
		{"rate(req_total[1m])", expr{fn: "rate", sel: selParams{name: "req_total", windowMs: 60_000}}},
		{"increase(a_total[90s])", expr{fn: "increase", sel: selParams{name: "a_total", windowMs: 90_000}}},
		{"avg_over_time(depth_db[30s])", expr{fn: "avg_over_time", sel: selParams{name: "depth_db", windowMs: 30_000}}},
		{"sum(rate(req_total[1m]))", expr{agg: "sum", fn: "rate", sel: selParams{name: "req_total", windowMs: 60_000}}},
		{`max( rate( x{session="a b"}[10s] ) )`, expr{agg: "max", fn: "rate", sel: selParams{name: "x", session: "a b", sessionFiltered: true, windowMs: 10_000}}},
		{"quantile_over_time(0.99, lat[5m])", expr{fn: "quantile_over_time", param: 0.99, sel: selParams{name: "lat", windowMs: 300_000}}},
		{"avg(depth_db)", expr{agg: "avg", sel: selParams{name: "depth_db"}}},
		// Span-derived names carry slashes and dots.
		{"rate(controller/solve_count[1m])", expr{fn: "rate", sel: selParams{name: "controller/solve_count", windowMs: 60_000}}},
	}
	for _, tc := range good {
		e, err := parseExpr(tc.in)
		if err != nil {
			t.Errorf("parse(%q): %v", tc.in, err)
			continue
		}
		if *e != tc.want {
			t.Errorf("parse(%q) = %+v, want %+v", tc.in, *e, tc.want)
		}
	}

	bad := []string{
		"", "rate(x)", "x[1m]", "sum()", "rate(x[0s])", "rate(x[bogus])",
		`x{foo="y"}`, "x{session=}", `x{session="y"`, "sum(rate(x[1m])", "x junk",
		"quantile_over_time(x[1m])", "unknownfn(x[1m])x",
	}
	for _, in := range bad {
		if _, err := parseExpr(in); err == nil {
			t.Errorf("parse(%q) unexpectedly succeeded", in)
		}
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	exprs := []string{
		"req_total",
		`req_total{session="room1"}`,
		"rate(req_total[1m0s])",
		`sum(rate(x{session="a b"}[10s]))`,
		"quantile_over_time(0.99, lat[5m0s])",
	}
	for _, in := range exprs {
		e, err := parseExpr(in)
		if err != nil {
			t.Fatalf("parse(%q): %v", in, err)
		}
		if got := e.String(); got != in {
			t.Errorf("String(parse(%q)) = %q", in, got)
		}
	}
}

func TestWithSession(t *testing.T) {
	got, err := WithSession("sum(rate(req_total[1m]))", "room-7")
	if err != nil {
		t.Fatal(err)
	}
	if want := `sum(rate(req_total{session="room-7"}[1m0s]))`; got != want {
		t.Errorf("WithSession = %q, want %q", got, want)
	}
	// Overrides an existing filter.
	got, err = WithSession(`x{session="old"}`, "new")
	if err != nil {
		t.Fatal(err)
	}
	if want := `x{session="new"}`; got != want {
		t.Errorf("WithSession override = %q, want %q", got, want)
	}
	if _, err := WithSession("rate(", "s"); err == nil {
		t.Error("bad expression accepted")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if q := quantile(0, vals); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantile(1, vals); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := quantile(0.5, vals); q != 2.5 {
		t.Fatalf("q0.5 = %v", q)
	}
}

func TestQueryFunctions(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, false)
	defer s.Close()
	base := time.Now().UnixMilli()/1000*1000 - 60_000
	// Gauge sawtooth 0..5, histogram-backed counter pair.
	for i := 0; i < 60; i++ {
		feed(t, s, Batch{
			UnixMs: base + int64(i)*1000,
			Gauges: map[string]float64{"saw": float64(i % 6)},
			Histograms: map[string]HistDelta{
				"solve_seconds": {Count: 2, Sum: 0.25},
			},
		})
	}
	end := time.UnixMilli(base + 59_000)

	cases := []struct {
		expr     string
		min, max float64
	}{
		{"max_over_time(saw[30s])", 5, 5},
		{"min_over_time(saw[30s])", 0, 0},
		{"avg_over_time(saw[30s])", 2, 3},
		{"quantile_over_time(1, saw[30s])", 5, 5},
		{"increase(solve_seconds_count[30s])", 55, 62},
		{"rate(solve_seconds_sum[30s])", 0.2, 0.3},
	}
	for _, tc := range cases {
		samples, err := s.Instant(tc.expr, end)
		if err != nil || len(samples) != 1 {
			t.Fatalf("%s: %v %+v", tc.expr, err, samples)
		}
		if samples[0].V < tc.min || samples[0].V > tc.max {
			t.Errorf("%s = %v, want [%v,%v]", tc.expr, samples[0].V, tc.min, tc.max)
		}
	}

	// Counter reset tolerance: rate must not go negative when the
	// cumulative value restarts.
	s.mu.Lock()
	sr := s.series[seriesKey{"", "solve_seconds_count"}]
	sr.cum = 0
	s.mu.Unlock()
	feed(t, s, Batch{
		UnixMs:     base + 61_000,
		Histograms: map[string]HistDelta{"solve_seconds": {Count: 4, Sum: 0.5}},
	})
	samples, err := s.Instant("increase(solve_seconds_count[20s])", time.UnixMilli(base+61_000))
	if err != nil || len(samples) != 1 {
		t.Fatalf("reset increase: %v %+v", err, samples)
	}
	if samples[0].V < 0 {
		t.Fatalf("negative increase across reset: %v", samples[0].V)
	}
}

func TestRangeStepLimit(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, false)
	defer s.Close()
	_, err := s.Range("x", time.UnixMilli(0), time.UnixMilli(1_000_000_000), time.Second)
	if err == nil {
		t.Fatal("giant range accepted")
	}
}

func TestSpanSamplesBecomeCountAndSeconds(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, false)
	defer s.Close()
	now := time.Now().UnixMilli()
	feed(t, s, Batch{
		UnixMs: now,
		Spans:  map[string]SpanDelta{"loop/apply": {Count: 3, TotalSeconds: 0.09}},
	})
	for _, q := range []string{"loop/apply_count", "loop/apply_seconds_total"} {
		samples, err := s.Instant(q, time.UnixMilli(now))
		if err != nil || len(samples) != 1 {
			t.Fatalf("%s: %v %+v", q, err, samples)
		}
	}
}
