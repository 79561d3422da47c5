package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the pct-th percentile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := pct / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// samplesBeyond returns how many of n samples lie above the pct-th
// percentile's rank.
func samplesBeyond(n, pct int) int { return n - (n*pct+99)/100 }

// tailPct returns the highest of the reported tail percentiles (99, 90)
// that has at least ten samples beyond it, or 0 when neither has.
func tailPct(n int) int {
	for _, pct := range []int{99, 90} {
		if samplesBeyond(n, pct) >= 10 {
			return pct
		}
	}
	return 0
}

// tailPercentile returns the pct-th percentile of xs, or 0 when fewer
// than ten samples lie beyond it.
func tailPercentile(xs []float64, pct int) float64 {
	if samplesBeyond(len(xs), pct) < 10 {
		return 0
	}
	return percentile(xs, float64(pct))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads read the same as in that tool. It needs
// at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// allocBytes reads the process's cumulative heap-allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// benchmarkFile is the part of BENCHMARK.json that -repeat reads: the
// regression bound of every end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// printRepeat prints the median and interquartile range of every metric
// across runs, flagging any whose relative IQR exceeds its bound.
func printRepeat(w io.Writer, name string, runs []map[string]metric, bounds map[string]float64) (medians map[string]metric) {
	names := make([]string, 0, len(runs[0]))
	for n := range runs[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	medians = map[string]metric{}
	fmt.Fprintf(w, "\n%s: %d runs\n", name, len(runs))
	fmt.Fprintf(w, "  %-32s %14s %14s %14s %9s %7s\n", "metric", "median", "q1", "q3", "rel_iqr", "bound")
	for _, n := range names {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r[n].Value
		}
		q1, med, q3 := vals[0], vals[0], vals[0]
		if len(vals) > 1 {
			q1, med, q3 = quartiles(vals)
		}
		medians[n] = metric{med, runs[0][n].Unit}
		rel := 0.0
		if med != 0 {
			rel = (q3 - q1) / math.Abs(med)
		}
		bound, ok := bounds[n]
		flag, bstr := "", "-"
		if ok {
			bstr = fmt.Sprintf("%.2f", bound)
			if rel > bound {
				flag = "  WIDER THAN BOUND"
			}
		}
		fmt.Fprintf(w, "  %-32s %14.6g %14.6g %14.6g %9.4f %7s%s\n", n, med, q1, q3, rel, bstr, flag)
	}
	return medians
}

// metricLine renders the final JSON line of a run.
func metricLine(correct bool, attempted, failed int, ms map[string]metric) string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		// Only a NaN or Inf metric can fail to encode; that is a bug in
		// this package, not an input the run can cause.
		panic(err)
	}
	return strings.TrimSpace(string(b))
}
