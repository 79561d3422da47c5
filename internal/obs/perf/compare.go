package perf

import (
	"fmt"
	"io"
	"math"
	"sort"

	"press/internal/stats"
)

// Options tune the comparison engine and the regression gate.
type Options struct {
	// Alpha is the two-sided significance threshold for the
	// Mann-Whitney U test (default 0.05).
	Alpha float64
	// MinDelta is the minimum |relative median delta| that counts as a
	// real change even when statistically significant (default 0.05 =
	// 5%) — the min-effect-size guard against flagging measurable but
	// meaningless drift on quiet benchmarks.
	MinDelta float64
	// FallbackDelta applies when either side has too few samples for a
	// rank test (n < 2): the change is flagged only when the median
	// moves by at least this fraction (default 0.5 = 50%). Single-shot
	// baselines thus still catch gross regressions without false-failing
	// on noise.
	FallbackDelta float64
}

// Defaults for unset Options fields.
const (
	DefaultAlpha         = 0.05
	DefaultMinDelta      = 0.05
	DefaultFallbackDelta = 0.50
)

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	if o.MinDelta <= 0 {
		o.MinDelta = DefaultMinDelta
	}
	if o.FallbackDelta <= 0 {
		o.FallbackDelta = DefaultFallbackDelta
	}
	return o
}

// Verdict classifies one benchmark's old-vs-new comparison.
type Verdict string

// Verdicts.
const (
	VerdictUnchanged    Verdict = "unchanged"    // no significant relevant change
	VerdictRegression   Verdict = "regression"   // significantly slower (or more allocs)
	VerdictImprovement  Verdict = "improvement"  // significantly faster
	VerdictInconclusive Verdict = "inconclusive" // too few samples to test, delta below fallback
	VerdictAdded        Verdict = "added"        // only in the new results
	VerdictRemoved      Verdict = "removed"      // only in the baseline
)

// Comparison is one benchmark's statistical old-vs-new result.
type Comparison struct {
	Pkg  string `json:"pkg,omitempty"`
	Name string `json:"name"`
	// Baseline provenance (date + CPU of the baseline record).
	Baseline string `json:"baseline,omitempty"`

	OldN      int     `json:"old_n,omitempty"`
	NewN      int     `json:"new_n,omitempty"`
	OldMedian float64 `json:"old_ns_per_op,omitempty"`
	NewMedian float64 `json:"new_ns_per_op,omitempty"`
	// Delta is the relative median change, (new-old)/old.
	Delta float64 `json:"delta,omitempty"`
	// P is the two-sided Mann-Whitney p-value; NaN (omitted in JSON as
	// 0) when either side has fewer than two samples.
	P float64 `json:"p,omitempty"`

	// Alloc medians (allocs/op) when -benchmem data exists on both
	// sides; AllocRegression marks a deterministic allocation increase.
	OldAllocs       float64 `json:"old_allocs_per_op,omitempty"`
	NewAllocs       float64 `json:"new_allocs_per_op,omitempty"`
	NewAllocsKnown  bool    `json:"-"`
	AllocRegression bool    `json:"alloc_regression,omitempty"`

	Verdict Verdict `json:"verdict"`
}

// significant reports whether the timing change is statistically
// significant AND large enough to matter.
func significant(p, delta float64, opt Options) bool {
	return !math.IsNaN(p) && p < opt.Alpha && math.Abs(delta) >= opt.MinDelta
}

// Compare runs the comparison engine over two record sets: for every
// benchmark present in both, a two-sided Mann-Whitney U test on the
// ns/op sample sets decides whether the medians differ significantly,
// and the min-delta guard decides whether the difference is big enough
// to matter. Benchmarks on one side only are reported as added/removed.
// Results are sorted: regressions first, then by key.
func Compare(baseline, current []Record, opt Options) []Comparison {
	opt = opt.withDefaults()
	oldSets := SampleSets(baseline)
	newSets := SampleSets(current)

	keys := map[string]bool{}
	for k := range oldSets {
		keys[k] = true
	}
	for k := range newSets {
		keys[k] = true
	}
	var out []Comparison
	for k := range keys {
		o, hasOld := oldSets[k]
		n, hasNew := newSets[k]
		switch {
		case !hasOld:
			out = append(out, Comparison{Pkg: n.Pkg, Name: n.Name, NewN: len(n.Samples),
				NewMedian: stats.Median(nsSamples(n)), Verdict: VerdictAdded, P: math.NaN()})
		case !hasNew:
			out = append(out, Comparison{Pkg: o.Pkg, Name: o.Name, OldN: len(o.Samples),
				OldMedian: stats.Median(nsSamples(o)), Verdict: VerdictRemoved, P: math.NaN()})
		default:
			out = append(out, compareOne(o, n, opt))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Verdict == VerdictRegression, out[j].Verdict == VerdictRegression
		if ri != rj {
			return ri
		}
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func compareOne(o, n *SampleSet, opt Options) Comparison {
	oldNs, newNs := nsSamples(o), nsSamples(n)
	c := Comparison{
		Pkg: o.Pkg, Name: o.Name, Baseline: describeBaseline(o),
		OldN: len(oldNs), NewN: len(newNs),
		OldMedian: stats.Median(oldNs), NewMedian: stats.Median(newNs),
		P: math.NaN(),
	}
	if c.OldMedian != 0 {
		c.Delta = (c.NewMedian - c.OldMedian) / c.OldMedian
	}

	switch {
	case len(oldNs) >= 2 && len(newNs) >= 2:
		c.P = stats.MannWhitneyU(oldNs, newNs)
		switch {
		case significant(c.P, c.Delta, opt) && c.Delta > 0:
			c.Verdict = VerdictRegression
		case significant(c.P, c.Delta, opt) && c.Delta < 0:
			c.Verdict = VerdictImprovement
		default:
			c.Verdict = VerdictUnchanged
		}
	case math.Abs(c.Delta) >= opt.FallbackDelta:
		// Too few samples for a rank test; only a gross median move
		// counts.
		if c.Delta > 0 {
			c.Verdict = VerdictRegression
		} else {
			c.Verdict = VerdictImprovement
		}
	default:
		c.Verdict = VerdictInconclusive
	}

	// Allocation counts are near-deterministic, so any increase beyond
	// the min-delta guard (and at least one whole alloc) is a
	// regression regardless of sample counts.
	if oa, ok := allocMedian(o); ok {
		if na, ok := allocMedian(n); ok {
			c.OldAllocs, c.NewAllocs, c.NewAllocsKnown = oa, na, true
			if na > oa && na-oa >= 1 && na-oa >= oa*opt.MinDelta {
				c.AllocRegression = true
				c.Verdict = VerdictRegression
			}
		}
	}
	return c
}

// Regressions filters a comparison down to gate failures.
func Regressions(cmps []Comparison) []Comparison {
	var out []Comparison
	for _, c := range cmps {
		if c.Verdict == VerdictRegression {
			out = append(out, c)
		}
	}
	return out
}

// WriteComparisons renders a benchstat-style table.
func WriteComparisons(w io.Writer, cmps []Comparison) error {
	if _, err := fmt.Fprintf(w, "%-52s %14s %14s %9s %8s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "p", "verdict"); err != nil {
		return err
	}
	for _, c := range cmps {
		name := c.Name
		if c.Pkg != "" {
			name = c.Pkg + " " + c.Name
		}
		p := "n/a"
		if !math.IsNaN(c.P) {
			p = fmt.Sprintf("%.4f", c.P)
		}
		verdict := string(c.Verdict)
		if c.AllocRegression {
			verdict += fmt.Sprintf(" (allocs %g→%g)", c.OldAllocs, c.NewAllocs)
		}
		if _, err := fmt.Fprintf(w, "%-52s %14.2f %14.2f %+8.1f%% %8s  %s\n",
			name, c.OldMedian, c.NewMedian, c.Delta*100, p, verdict); err != nil {
			return err
		}
	}
	return nil
}
