package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/tsdb"
)

// seedQueryDir writes a small history directory: two sessions counting
// at different rates for one minute, closed so the segments are sealed.
func seedQueryDir(t *testing.T) (dir string, base int64) {
	t.Helper()
	dir = t.TempDir()
	s, err := tsdb.Open(tsdb.Options{Dir: dir, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	base = time.Now().Add(-2 * time.Minute).UnixMilli()
	for i := 0; i < 60; i++ {
		at := base + int64(i)*1000
		s.Offer(tsdb.Batch{
			UnixMs: at, Session: "room-a",
			Counters: map[string]int64{"q_work_total": 2},
		})
		s.Offer(tsdb.Batch{
			UnixMs: at, Session: "room-b",
			Counters: map[string]int64{"q_work_total": 3},
			Gauges:   map[string]float64{"q_depth_db": float64(i)},
		})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, base
}

func TestQueryInstantTable(t *testing.T) {
	dir, _ := seedQueryDir(t)
	var out bytes.Buffer
	if err := runQuery([]string{"-tsdb-dir", dir, "q_work_total"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"SERIES", `q_work_total{session="room-a"}`, "120", "180"} {
		if !strings.Contains(got, want) {
			t.Errorf("instant table missing %q:\n%s", want, got)
		}
	}
}

func TestQuerySessionFilterAndNDJSON(t *testing.T) {
	dir, _ := seedQueryDir(t)
	var out bytes.Buffer
	err := runQuery([]string{"-tsdb-dir", dir, "-session", "room-b", "-o", "ndjson", "q_work_total"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(out.String())
	lines := strings.Split(got, "\n")
	if len(lines) != 1 {
		t.Fatalf("ndjson lines = %d, want 1:\n%s", len(lines), got)
	}
	if !strings.Contains(got, `"session":"room-b"`) || !strings.Contains(got, `"value":180`) {
		t.Fatalf("ndjson: %s", got)
	}
}

func TestQueryRangeDefaultsToExtent(t *testing.T) {
	dir, _ := seedQueryDir(t)
	var out bytes.Buffer
	err := runQuery([]string{"-tsdb-dir", dir, "-last", "1m", "-step", "15s",
		"rate(q_work_total[30s])"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, `rate(q_work_total){session="room-a"}`) ||
		!strings.Contains(got, `rate(q_work_total){session="room-b"}`) {
		t.Fatalf("range output missing series:\n%s", got)
	}
	if !strings.Contains(got, "points)") {
		t.Fatalf("range output has no points:\n%s", got)
	}
}

func TestQueryUsageErrors(t *testing.T) {
	dir, _ := seedQueryDir(t)
	var out bytes.Buffer
	cases := [][]string{
		{"q_work_total"},                                       // no -tsdb-dir
		{"-tsdb-dir", dir},                                     // no expression
		{"-tsdb-dir", dir, "a", "b"},                           // two expressions
		{"-tsdb-dir", dir, "-o", "xml", "x"},                   // bad format
		{"-tsdb-dir", dir, "-at", "yesterday", "x"},            // bad time
		{"-tsdb-dir", dir, "rate(q_work_total"},                // parse error
		{"-tsdb-dir", dir, "-session", "a", "sum()"},           // rewrite parse error
		{"-tsdb-dir", dir, "-start", "nope", "-end", "1", "x"}, // bad range time
	}
	for _, args := range cases {
		if err := runQuery(args, &out); err == nil {
			t.Errorf("runQuery(%v) unexpectedly succeeded", args)
		}
	}
}
