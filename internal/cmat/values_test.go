package cmat

import (
	"math"
	"math/rand/v2"
	"testing"

	"press/internal/fpexact"
)

// checkValues compares jacobiValues(a) with Decompose(a).S: bit for bit
// when exact (NaN matches NaN in the same position), else to 1e-12
// relative.
func checkValues(t *testing.T, name string, a *Matrix, exact bool) {
	t.Helper()
	want := Decompose(a).S
	got := make([]float64, min(a.Rows, a.Cols))
	jacobiValues(a, got)
	for i := range want {
		g, w := got[i], want[i]
		if math.IsNaN(g) || math.IsNaN(w) {
			if math.IsNaN(g) != math.IsNaN(w) {
				t.Fatalf("%s: NaN positions differ: got %v, want %v", name, got, want)
			}
			continue
		}
		if (exact && g != w) || math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
			t.Fatalf("%s: values %v, Decompose %v", name, got, want)
		}
	}
}

func TestJacobiValuesMatchesDecompose(t *testing.T) {
	exact := !fpexact.Contracts()
	rng := rand.New(rand.NewPCG(95, 96))
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.IntN(6), 1+rng.IntN(6)
		a := randMatrix(rng, rows, cols)
		switch trial % 4 {
		case 1: // rank-deficient: a repeated, scaled column
			if cols > 1 {
				s := complex(rng.NormFloat64(), rng.NormFloat64())
				for i := 0; i < rows; i++ {
					a.Set(i, cols-1, s*a.At(i, 0))
				}
			}
		case 2: // rank one: an outer product
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					a.Set(i, j, a.At(i, 0)*a.At(0, j))
				}
			}
		case 3: // exactly repeated singular values: a scaled identity block
			a = New(rows, cols)
			for i := 0; i < min(rows, cols); i++ {
				a.Set(i, i, 2.5)
			}
		}
		checkValues(t, "random", a, exact)
	}
}

func TestJacobiValuesSpecialEntries(t *testing.T) {
	exact := !fpexact.Contracts()
	rng := rand.New(rand.NewPCG(97, 98))
	checkValues(t, "zero 4x4", New(4, 4), exact)
	checkValues(t, "zero 2x5", New(2, 5), exact)
	checkValues(t, "1x1", FromRows([][]complex128{{3 - 4i}}), exact)
	specials := []complex128{
		complex(math.NaN(), 0), complex(0, math.NaN()),
		complex(math.Inf(1), 0), complex(0, math.Inf(-1)),
		complex(math.Inf(1), math.Inf(-1)),
	}
	for trial := 0; trial < 200; trial++ {
		a := randMatrix(rng, 1+rng.IntN(6), 1+rng.IntN(6))
		for n := 1 + rng.IntN(2); n > 0; n-- {
			a.Data[rng.IntN(len(a.Data))] = specials[rng.IntN(len(specials))]
		}
		checkValues(t, "nan/inf", a, exact)
	}
}

// A matrix of more than 16 entries goes to Decompose itself, whose
// sort.Slice, above 12 columns a pattern-defeating quicksort, gives the
// values.
func TestJacobiValuesLarge(t *testing.T) {
	exact := !fpexact.Contracts()
	rng := rand.New(rand.NewPCG(99, 100))
	for _, shape := range [][2]int{{5, 4}, {4, 7}, {14, 13}, {13, 15}} {
		checkValues(t, "large", randMatrix(rng, shape[0], shape[1]), exact)
	}
	a := randMatrix(rng, 14, 13)
	a.Data[5] = complex(math.NaN(), 0)
	checkValues(t, "large nan", a, exact)
}

var sinkValues []float64

func BenchmarkSingularValues4x4(b *testing.B) {
	rng := rand.New(rand.NewPCG(93, 94))
	a := randMatrix(rng, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkValues = SingularValues(a)
	}
}
