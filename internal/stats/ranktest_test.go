package stats

import (
	"math"
	"testing"
)

func TestMannWhitneyU(t *testing.T) {
	// Perfectly separated groups: smallest possible exact p for n=5+5 is
	// 2/C(10,5) ≈ 0.0079.
	p := MannWhitneyU([]float64{1, 2, 3, 4, 5}, []float64{10, 11, 12, 13, 14})
	if p > 0.01 {
		t.Errorf("separated p = %v, want ≤ 0.01", p)
	}
	// Identical samples: no evidence at all.
	p = MannWhitneyU([]float64{5, 5, 5}, []float64{5, 5, 5})
	if p < 0.99 {
		t.Errorf("identical p = %v, want ~1", p)
	}
	// Symmetry.
	a := []float64{1, 3, 5, 7, 9}
	b := []float64{2, 4, 6, 8, 20}
	if pab, pba := MannWhitneyU(a, b), MannWhitneyU(b, a); math.Abs(pab-pba) > 1e-12 {
		t.Errorf("asymmetric: p(a,b)=%v p(b,a)=%v", pab, pba)
	}
	// Empty input.
	if p := MannWhitneyU(nil, []float64{1}); !math.IsNaN(p) {
		t.Errorf("empty p = %v, want NaN", p)
	}
	// Large samples take the normal-approximation path and still detect
	// a clean separation.
	big1 := make([]float64, 40)
	big2 := make([]float64, 40)
	for i := range big1 {
		big1[i] = 100 + float64(i%7)
		big2[i] = 150 + float64(i%7)
	}
	if p := MannWhitneyU(big1, big2); p > 1e-6 {
		t.Errorf("large separated p = %v", p)
	}
	// All-identical large samples hit the sigma2 <= 0 branch.
	flat := make([]float64, 40)
	for i := range flat {
		flat[i] = 7
	}
	if p := MannWhitneyU(flat, flat); p != 1 {
		t.Errorf("flat large p = %v, want 1", p)
	}
}

func TestBinomial(t *testing.T) {
	if got := binomial(10, 5); got != 252 {
		t.Errorf("C(10,5) = %v", got)
	}
	if got := binomial(5, 0); got != 1 {
		t.Errorf("C(5,0) = %v", got)
	}
	if got := binomial(5, 7); got != 0 {
		t.Errorf("C(5,7) = %v", got)
	}
	// Large inputs saturate instead of overflowing (e.g. -count=100).
	if got := binomial(200, 100); got != 1e12 {
		t.Errorf("C(200,100) = %v, want saturation at 1e12", got)
	}
}
