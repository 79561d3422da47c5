package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestKSIdenticalIsZero(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	a, b := NewECDF(xs), NewECDF(xs)
	if d := KSDistance(a, b); d != 0 {
		t.Errorf("KS of identical samples = %v", d)
	}
}

func TestKSDisjointIsOne(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3})
	b := NewECDF([]float64{10, 11, 12})
	if d := KSDistance(a, b); math.Abs(d-1) > 1e-12 {
		t.Errorf("KS of disjoint supports = %v, want 1", d)
	}
}

func TestKSKnownValue(t *testing.T) {
	// a = {0, 1}, b = {0.5}: at x slightly below 0.5, CDF_a = 0.5 and
	// CDF_b = 0; at 0.5 they are 0.5 and 1. Max gap = 0.5.
	a := NewECDF([]float64{0, 1})
	b := NewECDF([]float64{0.5})
	if d := KSDistance(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("KS = %v, want 0.5", d)
	}
}

func TestKSSymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		xs := make([]float64, 1+rng.IntN(30))
		ys := make([]float64, 1+rng.IntN(30))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for i := range ys {
			ys[i] = rng.NormFloat64() + 0.3
		}
		a, b := NewECDF(xs), NewECDF(ys)
		d1, d2 := KSDistance(a, b), KSDistance(b, a)
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("asymmetric KS: %v vs %v", d1, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("KS out of [0,1]: %v", d1)
		}
	}
}

func TestKSSameDistributionSmall(t *testing.T) {
	// Two large samples from the same distribution: KS should be small.
	rng := rand.New(rand.NewPCG(3, 4))
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	if d := KSDistance(NewECDF(xs), NewECDF(ys)); d > 0.08 {
		t.Errorf("KS of same-distribution samples = %v", d)
	}
}

func TestKSEmptyIsNaN(t *testing.T) {
	if d := KSDistance(NewECDF(nil), NewECDF([]float64{1})); !math.IsNaN(d) {
		t.Errorf("KS with empty sample = %v, want NaN", d)
	}
}

// TestKolmogorovQTabulated checks the Kolmogorov tail against tabulated
// values (Q(1.36) ≈ 0.049 and Q(1.63) ≈ 0.010, the 5 % and 1 % critical
// points, Q(0.5) and Q(1)), and against the alternating series summed
// to 200 terms on both sides of the switch between its two forms.
func TestKolmogorovQTabulated(t *testing.T) {
	for _, c := range []struct{ lambda, want, tol float64 }{
		{1.36, 0.049, 0.0005},
		{1.63, 0.010, 0.0005},
		{0.5, 0.9639, 0.0001},
		{1.0, 0.2700, 0.0001},
	} {
		if got := kolmogorovQ(c.lambda); math.Abs(got-c.want) > c.tol {
			t.Errorf("Q(%v) = %.6f, want %v ± %v", c.lambda, got, c.want, c.tol)
		}
	}
	for lambda := 0.3; lambda < 3; lambda += 0.01 {
		var series float64
		for k := 200; k >= 1; k-- {
			series += 2 * math.Pow(-1, float64(k-1)) * math.Exp(-2*float64(k*k)*lambda*lambda)
		}
		if got := kolmogorovQ(lambda); math.Abs(got-series) > 1e-14 {
			t.Errorf("Q(%v) = %v, series %v", lambda, got, series)
		}
	}
}

// TestKSPValue checks the p-value's edge cases and that it falls as the
// distance grows, and that it is Q at Stephens' λ.
func TestKSPValue(t *testing.T) {
	if p := KSPValue(0, 10, 20); p != 1 {
		t.Errorf("KSPValue(0) = %v, want 1", p)
	}
	for _, c := range []struct {
		d    float64
		n, m int
	}{{math.NaN(), 10, 10}, {0.3, 0, 10}, {0.3, 10, 0}, {0.3, -1, 10}, {-0.1, 10, 10}} {
		if p := KSPValue(c.d, c.n, c.m); !math.IsNaN(p) {
			t.Errorf("KSPValue(%v, %d, %d) = %v, want NaN", c.d, c.n, c.m, p)
		}
	}
	ne := math.Sqrt(40.0 * 60 / 100)
	if got, want := KSPValue(0.3, 40, 60), kolmogorovQ((ne+0.12+0.11/ne)*0.3); got != want {
		t.Errorf("KSPValue(0.3, 40, 60) = %v, want Q(λ) = %v", got, want)
	}
	for _, nm := range [][2]int{{1, 1}, {5, 7}, {52, 52}, {1000, 3000}} {
		prev := 1.0
		for i := 0; i <= 2000; i++ {
			d := float64(i) / 1000
			p := KSPValue(d, nm[0], nm[1])
			if !(p >= 0 && p <= prev) {
				t.Fatalf("n=%d m=%d: KSPValue(%v) = %v after %v: not in [0, previous]", nm[0], nm[1], d, p, prev)
			}
			prev = p
		}
	}
}
