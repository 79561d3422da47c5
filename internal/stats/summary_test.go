package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"constant", []float64{7, 7, 7}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	in := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: sum of squared deviations = 32,
	// 32/7.
	want := 32.0 / 7.0
	if got := Variance(in); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(in); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestMinMaxIdx(t *testing.T) {
	in := []float64{3, -2, 5, -2, 5}
	if v, i := MinIdx(in); v != -2 || i != 1 {
		t.Errorf("MinIdx = (%v,%d), want (-2,1)", v, i)
	}
	if v, i := MaxIdx(in); v != 5 || i != 2 {
		t.Errorf("MaxIdx = (%v,%d), want (5,2)", v, i)
	}
}

func TestMinIdxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinIdx(nil) did not panic")
		}
	}()
	MinIdx(nil)
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	in := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20}, {0.25, 17.5},
	}
	for _, c := range cases {
		if got := Quantile(in, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileClampsP(t *testing.T) {
	in := []float64{1, 2, 3}
	if got := Quantile(in, -0.5); got != 1 {
		t.Errorf("Quantile(-0.5) = %v, want 1", got)
	}
	if got := Quantile(in, 1.5); got != 3 {
		t.Errorf("Quantile(1.5) = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", in)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	e := Summarize(nil)
	if e.N != 0 || !math.IsNaN(e.Mean) || !math.IsNaN(e.Min) {
		t.Errorf("Summarize(nil) = %+v, want NaNs", e)
	}
}

// Property: the mean always lies between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Bound magnitudes so the running sum cannot overflow.
			if !math.IsNaN(x) && math.Abs(x) < 1e150 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-9*math.Abs(Min(clean))-1e-9 &&
			m <= Max(clean)+1e-9*math.Abs(Max(clean))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shifting every sample by c shifts mean and quantiles by c and
// leaves the variance unchanged.
func TestShiftInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.IntN(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		c := rng.NormFloat64() * 10
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
			ys[i] = xs[i] + c
		}
		if !almostEqual(Mean(ys), Mean(xs)+c, 1e-9) {
			t.Fatalf("mean not shift-equivariant (trial %d)", trial)
		}
		if !almostEqual(Variance(ys), Variance(xs), 1e-8) {
			t.Fatalf("variance not shift-invariant (trial %d)", trial)
		}
		if !almostEqual(Median(ys), Median(xs)+c, 1e-9) {
			t.Fatalf("median not shift-equivariant (trial %d)", trial)
		}
	}
}
