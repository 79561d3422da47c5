package stats

import "math"

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic between
// two empirical distributions: the largest vertical gap between their
// CDFs. The experiment harnesses use it to quantify how similar the
// per-trial distribution curves are (the paper's Figures 5, 6 and 8 all
// overlay such families) and the tests use it to assert reproducibility
// across trials. It returns NaN when either distribution is empty.
func KSDistance(a, b *ECDF) float64 {
	if a.N() == 0 || b.N() == 0 {
		return math.NaN()
	}
	var worst float64
	// The supremum is attained at a sample point of either distribution.
	for _, x := range a.sorted {
		if d := math.Abs(a.CDF(x) - b.CDF(x)); d > worst {
			worst = d
		}
		// Also check just below the step.
		below := math.Nextafter(x, math.Inf(-1))
		if d := math.Abs(a.CDF(below) - b.CDF(below)); d > worst {
			worst = d
		}
	}
	for _, x := range b.sorted {
		if d := math.Abs(a.CDF(x) - b.CDF(x)); d > worst {
			worst = d
		}
		below := math.Nextafter(x, math.Inf(-1))
		if d := math.Abs(a.CDF(below) - b.CDF(below)); d > worst {
			worst = d
		}
	}
	return worst
}

// KSPValue returns the asymptotic p-value of a two-sample
// Kolmogorov–Smirnov distance d between samples of sizes n and m: the
// Kolmogorov distribution's tail Q(λ) = 2·Σ_{k≥1} (−1)^(k−1)·e^(−2k²λ²)
// at λ = (√nₑ + 0.12 + 0.11/√nₑ)·d, with nₑ = nm/(n+m) (Stephens' small-
// sample correction). It returns NaN for a NaN or negative d or an empty
// sample.
func KSPValue(d float64, n, m int) float64 {
	if n <= 0 || m <= 0 || !(d >= 0) {
		return math.NaN()
	}
	ne := math.Sqrt(float64(n) * float64(m) / float64(n+m))
	return kolmogorovQ((ne + 0.12 + 0.11/ne) * d)
}

// kolmogorovQ returns Q(λ) = 2·Σ_{k≥1} (−1)^(k−1)·e^(−2k²λ²) for λ ≥ 0.
// That series converges slowly for small λ, so below λ = 1.18 it uses
// the same function's theta-transformed form,
// 1 − (√(2π)/λ)·Σ_{k≥1} e^(−(2k−1)²π²/(8λ²)). Either form reaches double
// precision within five terms on its side of the switch.
func kolmogorovQ(lambda float64) float64 {
	if lambda == 0 {
		return 1
	}
	var sum float64
	if lambda < 1.18 {
		for k := 1; k <= 5; k++ {
			sum += math.Exp(-float64((2*k-1)*(2*k-1)) * math.Pi * math.Pi / (8 * lambda * lambda))
		}
		return max(0, min(1, 1-math.Sqrt(2*math.Pi)/lambda*sum))
	}
	for k := 5; k >= 1; k-- {
		term := math.Exp(-2 * float64(k*k) * lambda * lambda)
		if k%2 == 0 {
			term = -term
		}
		sum += term
	}
	return max(0, min(1, 2*sum))
}
