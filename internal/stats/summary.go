// Package stats provides the statistical machinery used throughout the
// PRESS reproduction: summary statistics, empirical CDF/CCDF curves,
// histograms, and the frequency-null metrics from the paper's §3.2
// (most-significant-null detection and null movement between PRESS
// configurations).
//
// All functions operate on plain []float64 so they compose with the
// per-subcarrier SNR vectors produced by internal/ofdm and internal/radio.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice,
// mirroring the behaviour of the other summary statistics so that callers
// can propagate "no data" without special cases.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns NaN if fewer than two samples are supplied.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest value in xs. It panics on an empty slice:
// every caller in this repository has already established non-emptiness,
// so silence here would hide a programming error.
func Min(xs []float64) float64 {
	v, _ := MinIdx(xs)
	return v
}

// Max returns the largest value in xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	v, _ := MaxIdx(xs)
	return v
}

// MinIdx returns the smallest value in xs and the index of its first
// occurrence. It panics on an empty slice.
func MinIdx(xs []float64) (float64, int) {
	if len(xs) == 0 {
		panic("stats: MinIdx of empty slice")
	}
	best, idx := xs[0], 0
	for i, x := range xs[1:] {
		if x < best {
			best, idx = x, i+1
		}
	}
	return best, idx
}

// MaxIdx returns the largest value in xs and the index of its first
// occurrence. It panics on an empty slice.
func MaxIdx(xs []float64) (float64, int) {
	if len(xs) == 0 {
		panic("stats: MaxIdx of empty slice")
	}
	best, idx := xs[0], 0
	for i, x := range xs[1:] {
		if x > best {
			best, idx = x, i+1
		}
	}
	return best, idx
}

// Median returns the middle value of xs (the mean of the two middle values
// for even lengths). It returns NaN for an empty slice and does not modify
// its argument.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the p-quantile of xs (0 ≤ p ≤ 1) using linear
// interpolation between order statistics (type-7 estimator, the same one
// used by numpy's default percentile). It returns NaN for an empty slice
// and does not modify its argument.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the summary statistics of one data set. It is the unit
// that experiment harnesses report per configuration or per trial.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. Min, Max and Median are NaN for an
// empty input; StdDev is NaN when fewer than two samples are present.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	if len(xs) == 0 {
		s.Min, s.Max, s.Median = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	s.Min = Min(xs)
	s.Max = Max(xs)
	s.Median = Median(xs)
	return s
}
