package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {999, 90}, {100, 90}, {99, 0}, {0, 0},
	} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tailPercentile(xs, 99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0 (unreported)", got)
	}
	xs = append(xs, 999)
	if got := tailPercentile(xs, 99); got != percentile(xs, 99) || got == 0 {
		t.Errorf("p99 of 1000 samples = %v, want %v", got, percentile(xs, 99))
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},   // root
		{Start: 10, End: 30, Parent: 0},    // child A
		{Start: 12, End: 15, Parent: 1},    // grandchild under A
		{Start: 20, End: 50, Parent: 0},    // child B, overlapping A
		{Start: 90, End: 120, Parent: 0},   // child C, running past the root
		{Start: 200, End: 210, Parent: -1}, // second root, no children
	}
	want := []int64{
		100 - 40 - 10, // root minus [10,50] and [90,100]
		20 - 3,
		3,
		30,
		30,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	ep := tr.beginEpisode(7)
	s := tr.begin(spanSearch)
	e := tr.begin(spanEval)
	tr.end(e)
	tr.end(s)
	tr.endEpisode(ep)
	b := tr.begin(spanBuild)
	tr.end(b)
	wantParent := []int32{-1, 0, 1, -1}
	wantEpisode := []int32{7, 7, 7, -1}
	for i, sp := range tr.spans {
		if sp.Parent != wantParent[i] || sp.Episode != wantEpisode[i] || sp.End < sp.Start {
			t.Errorf("span %d (%s) = %+v, want parent %d episode %d", i, spanNames[sp.Kind], sp, wantParent[i], wantEpisode[i])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(spanEval)) // must not panic
}

// TestWorkloadsSmoke runs the first episodes of every workload's check
// pass untraced and traced: each must satisfy its invariants, match the
// expected outputs, and be unchanged by tracing.
func TestWorkloadsSmoke(t *testing.T) {
	expected := map[string][]record{}
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		n := min(2, w.checkEpisodes)
		plain, err := episodes(w, checkSeed, n, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := episodes(w, checkSeed, n, newTracer())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if k, first := compareRecords(plain, expected[w.name][:n], checkTolDB); k > 0 {
			t.Errorf("%s: differs from expected outputs: %s", w.name, first)
		}
		if k, first := compareRecords(traced, plain, 0); k > 0 {
			t.Errorf("%s: tracing changed the outputs: %s", w.name, first)
		}
	}
}

// TestResultLineListsBenchmarkMetrics checks that the last line of a run
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestResultLineListsBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		EndToEnd []entry                 `json:"end_to_end"`
		PerLayer []entry                 `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workload {
		names = append(names, w.Name)
	}
	var known []string
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if strings.Join(names, ",") != strings.Join(known, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}
	for trace, want := range map[string][]entry{"0": bf.EndToEnd, "1": bf.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "control-loop", "--seed", "3", "--seconds", "0.2", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]metric
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %s: result %+v", trace, res)
		}
		var got, wantNames []string
		for n := range res.Metrics {
			got = append(got, n)
		}
		for _, m := range want {
			wantNames = append(wantNames, m.Name)
			if u := res.Metrics[m.Name].Unit; u != m.Unit {
				t.Errorf("trace %s: %s unit %q, BENCHMARK.json says %q", trace, m.Name, u, m.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(wantNames)
		if strings.Join(got, ",") != strings.Join(wantNames, ",") {
			t.Errorf("trace %s: metrics\n %v\nwant\n %v", trace, got, wantNames)
		}
	}
}
