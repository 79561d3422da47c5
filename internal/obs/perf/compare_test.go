package perf

import (
	"math"
	"strings"
	"testing"
)

// rec builds a single-package record with one benchmark whose ns/op
// samples are given (HasMem off unless allocs are set via recAlloc).
func rec(name string, ns ...float64) Record {
	r := Record{Schema: RecordSchema, Pkg: "press/test"}
	for _, v := range ns {
		r.add(name, BenchSample{N: 1000, NsPerOp: v})
	}
	return r
}

func recAlloc(name string, allocs float64, ns ...float64) Record {
	r := Record{Schema: RecordSchema, Pkg: "press/test"}
	for _, v := range ns {
		r.add(name, BenchSample{N: 1000, NsPerOp: v, AllocsPerOp: allocs, HasMem: true})
	}
	return r
}

func oneVerdict(t *testing.T, cmps []Comparison, want Verdict) Comparison {
	t.Helper()
	if len(cmps) != 1 {
		t.Fatalf("comparisons = %+v, want exactly one", cmps)
	}
	if cmps[0].Verdict != want {
		t.Fatalf("verdict = %q (delta %+.1f%%, p %.4f), want %q",
			cmps[0].Verdict, cmps[0].Delta*100, cmps[0].P, want)
	}
	return cmps[0]
}

// TestCompareSyntheticRegression: a clean 2x slowdown with 5 samples a
// side must gate as a regression.
func TestCompareSyntheticRegression(t *testing.T) {
	old := rec("BenchmarkHot", 100, 101, 99, 100.5, 100)
	cur := rec("BenchmarkHot", 200, 202, 199, 201, 200)
	c := oneVerdict(t, Compare([]Record{old}, []Record{cur}, Options{}), VerdictRegression)
	if c.Delta < 0.9 || c.Delta > 1.1 {
		t.Errorf("delta = %+.3f, want ~+1.0", c.Delta)
	}
	if math.IsNaN(c.P) || c.P >= DefaultAlpha {
		t.Errorf("p = %v, want < %v", c.P, DefaultAlpha)
	}
	if got := Regressions(Compare([]Record{old}, []Record{cur}, Options{})); len(got) != 1 {
		t.Errorf("Regressions = %+v, want the one regression", got)
	}
}

// TestCompareSyntheticImprovement: the mirror image is an improvement,
// never a gate failure.
func TestCompareSyntheticImprovement(t *testing.T) {
	old := rec("BenchmarkHot", 200, 202, 199, 201, 200)
	cur := rec("BenchmarkHot", 100, 101, 99, 100.5, 100)
	oneVerdict(t, Compare([]Record{old}, []Record{cur}, Options{}), VerdictImprovement)
}

// TestCompareNoise: overlapping samples with a tiny median shift stay
// unchanged — the rank test and the min-delta guard both hold it back.
func TestCompareNoise(t *testing.T) {
	old := rec("BenchmarkHot", 100, 104, 98, 102, 97)
	cur := rec("BenchmarkHot", 101, 99, 103, 100, 105)
	oneVerdict(t, Compare([]Record{old}, []Record{cur}, Options{}), VerdictUnchanged)
}

// TestCompareMinDeltaGuard: a perfectly separated but tiny (2%) shift is
// significant by rank test yet below the min effect size — unchanged.
func TestCompareMinDeltaGuard(t *testing.T) {
	old := rec("BenchmarkHot", 100.0, 100.1, 100.2, 100.0, 100.1)
	cur := rec("BenchmarkHot", 102.0, 102.1, 102.2, 102.0, 102.1)
	c := oneVerdict(t, Compare([]Record{old}, []Record{cur}, Options{}), VerdictUnchanged)
	if c.P >= DefaultAlpha {
		t.Errorf("p = %v, expected significance (guard, not the test, should hold this back)", c.P)
	}
}

// TestCompareFallbackSingleSample: with one sample a side the rank test
// cannot run; only a move beyond FallbackDelta flags.
func TestCompareFallbackSingleSample(t *testing.T) {
	c := oneVerdict(t, Compare([]Record{rec("BenchmarkHot", 100)},
		[]Record{rec("BenchmarkHot", 130)}, Options{}), VerdictInconclusive)
	if !math.IsNaN(c.P) {
		t.Errorf("p = %v, want NaN with n=1", c.P)
	}
	oneVerdict(t, Compare([]Record{rec("BenchmarkHot", 100)},
		[]Record{rec("BenchmarkHot", 210)}, Options{}), VerdictRegression)
	oneVerdict(t, Compare([]Record{rec("BenchmarkHot", 210)},
		[]Record{rec("BenchmarkHot", 100)}, Options{}), VerdictImprovement)
}

// TestCompareAllocRegression: allocation counts are deterministic, so
// 0→2 allocs/op is a regression even when timing is unchanged.
func TestCompareAllocRegression(t *testing.T) {
	old := recAlloc("BenchmarkHot", 0, 100, 101, 99, 100, 100)
	cur := recAlloc("BenchmarkHot", 2, 100, 101, 99, 100, 100)
	c := oneVerdict(t, Compare([]Record{old}, []Record{cur}, Options{}), VerdictRegression)
	if !c.AllocRegression || c.OldAllocs != 0 || c.NewAllocs != 2 {
		t.Errorf("alloc fields = %+v", c)
	}
}

func TestCompareAddedRemoved(t *testing.T) {
	old := rec("BenchmarkOld", 100, 100)
	cur := rec("BenchmarkNew", 50, 50)
	cmps := Compare([]Record{old}, []Record{cur}, Options{})
	if len(cmps) != 2 {
		t.Fatalf("comparisons = %+v", cmps)
	}
	got := map[string]Verdict{}
	for _, c := range cmps {
		got[c.Name] = c.Verdict
	}
	if got["BenchmarkOld"] != VerdictRemoved || got["BenchmarkNew"] != VerdictAdded {
		t.Errorf("verdicts = %v", got)
	}
}

// TestCompareNewestWins: in a history, a later record's measurement of
// the same benchmark replaces the earlier one.
func TestCompareNewestWins(t *testing.T) {
	older := rec("BenchmarkHot", 400, 401, 399, 400, 400) // stale slow baseline
	newer := rec("BenchmarkHot", 100, 101, 99, 100, 100)
	cur := rec("BenchmarkHot", 102, 100, 101, 99, 103)
	oneVerdict(t, Compare([]Record{older, newer}, []Record{cur}, Options{}), VerdictUnchanged)
}

func TestWriteComparisons(t *testing.T) {
	cmps := Compare([]Record{rec("BenchmarkHot", 100, 101, 99, 100, 100)},
		[]Record{rec("BenchmarkHot", 200, 202, 199, 201, 200)}, Options{})
	var sb strings.Builder
	if err := WriteComparisons(&sb, cmps); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "BenchmarkHot") || !strings.Contains(out, "regression") {
		t.Errorf("table output:\n%s", out)
	}
}
