package stats

import (
	"math"
	"sort"
)

// MannWhitneyU returns the two-sided p-value of the Mann-Whitney U
// (Wilcoxon rank-sum) test for samples a and b: the probability, under
// the null hypothesis that both come from the same distribution, of a
// rank split at least as extreme as the observed one. Small inputs
// (C(n1+n2, n1) ≤ 200000) use the exact permutation distribution over
// the observed (tie-averaged) ranks; larger inputs use the normal
// approximation with tie correction and continuity correction. Returns
// NaN when either sample is empty.
func MannWhitneyU(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return math.NaN()
	}
	ranks, tieTerm := rankAll(a, b)
	var r1 float64
	for i := 0; i < n1; i++ {
		r1 += ranks[i]
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	mu := float64(n1) * float64(n2) / 2

	if binomial(n1+n2, n1) <= 200000 {
		return exactP(ranks, n1, math.Abs(u1-mu))
	}

	n := float64(n1 + n2)
	sigma2 := float64(n1) * float64(n2) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return 1 // all values identical: no evidence of difference
	}
	z := (math.Abs(u1-mu) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	return 2 * normCCDF(z)
}

// rankAll assigns average ranks to the concatenation a||b and returns
// them (first len(a) entries belong to a) plus the tie-correction term
// Σ(t³−t).
func rankAll(a, b []float64) ([]float64, float64) {
	n := len(a) + len(b)
	type iv struct {
		v   float64
		pos int
	}
	all := make([]iv, 0, n)
	for i, v := range a {
		all = append(all, iv{v, i})
	}
	for i, v := range b {
		all = append(all, iv{v, len(a) + i})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	ranks := make([]float64, n)
	var tieTerm float64
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		avg := (float64(i+1) + float64(j)) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[all[k].pos] = avg
		}
		if t := float64(j - i); t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}
	return ranks, tieTerm
}

// exactP enumerates every n1-subset of the observed ranks and counts
// splits whose |U−µ| is at least the observed deviation — the exact
// permutation test, valid with ties because it conditions on the
// observed rank multiset.
func exactP(ranks []float64, n1 int, dev float64) float64 {
	n := len(ranks)
	mu := float64(n1) * float64(n-n1) / 2
	base := float64(n1) * float64(n1+1) / 2
	const eps = 1e-9
	var count, total int
	// Iterative combination walk over indices 0..n-1 choose n1.
	idx := make([]int, n1)
	for i := range idx {
		idx[i] = i
	}
	for {
		var r1 float64
		for _, i := range idx {
			r1 += ranks[i]
		}
		if math.Abs(r1-base-mu) >= dev-eps {
			count++
		}
		total++
		// Next combination.
		i := n1 - 1
		for i >= 0 && idx[i] == i+n-n1 {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < n1; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return float64(count) / float64(total)
}

// binomial computes C(n, k) in float64, saturating early — it is only
// a feasibility check for the exact test, so precision past ~1e12 is
// irrelevant.
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
		if c > 1e12 {
			return 1e12
		}
	}
	return c
}

// normCCDF is the standard normal upper-tail probability P(Z > z).
func normCCDF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
