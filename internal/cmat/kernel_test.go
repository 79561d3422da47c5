package cmat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/fpexact"
)

// shapes lists every rows×cols shape of up to 16 entries, the shapes
// jacobiValues works on itself.
func shapes() [][2]int {
	var out [][2]int
	for rows := 1; rows <= 16; rows++ {
		for cols := 1; rows*cols <= 16; cols++ {
			out = append(out, [2]int{rows, cols})
		}
	}
	return out
}

// sameBits reports whether got and want agree in math.Float64bits, with
// a NaN matching a NaN in the same position whatever its payload.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.IsNaN(g) || math.IsNaN(w) {
			if math.IsNaN(g) != math.IsNaN(w) {
				return false
			}
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// condOf is Cond's quotient on Decompose's values.
func condOf(s []float64) float64 {
	if s[len(s)-1] == 0 {
		return math.Inf(1)
	}
	return s[0] / s[len(s)-1]
}

// checkKernel compares jacobiValues(a) with Decompose(a).S in
// Float64bits, and with public set, SingularValues(a) and Cond(a) too
// (off the closed-form 2×2 path). It returns Decompose's values.
func checkKernel(a *Matrix, public bool) ([]float64, error) {
	want := Decompose(a).S
	return want, checkValuesBits(a, want, public)
}

// checkValuesBits is checkKernel against Decompose's values want.
func checkValuesBits(a *Matrix, want []float64, public bool) error {
	var buf [4]float64
	got := buf[:len(want)]
	jacobiValues(a, got)
	if !sameBits(got, want) {
		return fmt.Errorf("jacobiValues %v, Decompose %v\n%v", got, want, a)
	}
	if !public || a.Rows == 2 && a.Cols == 2 {
		return nil
	}
	if sv := SingularValues(a); !sameBits(sv, want) {
		return fmt.Errorf("SingularValues %v, Decompose %v\n%v", sv, want, a)
	}
	if c, w := Cond(a), condOf(want); !sameBits([]float64{c}, []float64{w}) {
		return fmt.Errorf("Cond %v, Decompose's quotient %v\n%v", c, w, a)
	}
	return nil
}

// checkPair compares jacobiValuesPair(a, b), for a and b of one shape,
// with their Decompose values wantA and wantB in Float64bits.
func checkPair(a, b *Matrix, wantA, wantB []float64) error {
	var bufA, bufB [4]float64
	gotA, gotB := bufA[:len(wantA)], bufB[:len(wantB)]
	jacobiValuesPair(a, b, gotA, gotB)
	if !sameBits(gotA, wantA) || !sameBits(gotB, wantB) {
		return fmt.Errorf("jacobiValuesPair %v and %v, Decompose %v and %v\n%v\n%v", gotA, gotB, wantA, wantB, a, b)
	}
	return nil
}

// variedMatrix draws a rows×cols matrix from one of eight families,
// chosen by kind: plain Gaussian entries at scales 1e-30…1e10,
// rank-deficient columns, ±0 parts, subnormal entries, parts at the
// guard, a part beyond it, Gram sums at the edges of normal range, and a
// first column pair at Decompose's convergence threshold.
func variedMatrix(rng *rand.Rand, rows, cols, kind int) *Matrix {
	a := New(rows, cols)
	fillVaried(rng, a, kind)
	return a
}

// fillVaried is variedMatrix drawing into a's storage, a's shape kept.
func fillVaried(rng *rand.Rand, a *Matrix, kind int) {
	rows, cols := a.Rows, a.Cols
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	scale := func(s float64) {
		for i := range a.Data {
			a.Data[i] *= complex(s, 0)
		}
	}
	switch kind {
	case 0: // plain, at scales 1e-30…1e10
		scale(math.Pow(10, -30+40*rng.Float64()))
	case 1: // rank-deficient: a scaled copy of another column
		scale(math.Pow(10, -30+40*rng.Float64()))
		if cols > 1 {
			from, to := rng.IntN(cols), rng.IntN(cols)
			s := complex(rng.NormFloat64(), rng.NormFloat64())
			if rng.IntN(4) == 0 {
				s = 1
			}
			for i := 0; i < rows; i++ {
				a.Set(i, to, s*a.At(i, from))
			}
		}
	case 2: // ±0 parts
		zero := func(x float64) float64 {
			if rng.IntN(3) == 0 {
				return math.Copysign(0, rng.NormFloat64())
			}
			return x
		}
		for i, x := range a.Data {
			a.Data[i] = complex(zero(real(x)), zero(imag(x)))
		}
	case 3: // subnormal entries, some beside normal ones
		scale(0x1p-1050 * math.Pow(2, -20*rng.Float64()))
		for i := range a.Data {
			if rng.IntN(3) == 0 {
				a.Data[i] *= 0x1p600
			}
		}
	case 4: // parts at the guard
		for i, x := range a.Data {
			re, im := real(x)*0x1p496, imag(x)*0x1p496
			if rng.IntN(2) == 0 {
				re = math.Copysign(jacobiGuard, re)
			}
			if rng.IntN(2) == 0 {
				im = math.Copysign(jacobiGuard, im)
			}
			a.Data[i] = complex(re, im)
		}
	case 5: // one part beyond the guard, or not finite
		specials := []float64{
			math.Nextafter(jacobiGuard, math.Inf(1)), 0x1p510, 1e300,
			math.MaxFloat64, math.Inf(1), math.NaN(),
		}
		x := math.Copysign(specials[rng.IntN(len(specials))], rng.NormFloat64())
		i := rng.IntN(len(a.Data))
		if rng.IntN(2) == 0 {
			a.Data[i] = complex(x, imag(a.Data[i]))
		} else {
			a.Data[i] = complex(real(a.Data[i]), x)
		}
	case 6: // Gram sums at the edges of normal range: app·aqq and the
		// squared test near underflow or overflow
		if rng.IntN(2) == 0 {
			scale(math.Pow(2, -560+100*rng.Float64()))
		} else {
			scale(math.Pow(2, 240+20*rng.Float64()))
		}
	case 7: // the first pair at the convergence threshold
		if min(rows, cols) >= 2 {
			ulps := rng.IntN(17) - 8
			if rows < cols {
				w := New(cols, rows)
				atThreshold(rng, w, ulps)
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						a.Set(i, j, cmplx.Conj(w.At(j, i)))
					}
				}
			} else {
				atThreshold(rng, a, ulps)
			}
			// Mostly ordinary scales; one in four puts the squared test's
			// sides near or below the smallest normal double.
			if rng.IntN(4) == 0 {
				scale(math.Pow(2, -280+60*rng.Float64()))
			} else {
				scale(math.Pow(2, -100+140*rng.Float64()))
			}
		}
	}
}

// gramTest evaluates Decompose's convergence test on columns p and q of
// w: true when the pair is skipped.
func gramTest(w *Matrix, p, q int) bool {
	var app, aqq float64
	var apq complex128
	for i := 0; i < w.Rows; i++ {
		cp, cq := w.At(i, p), w.At(i, q)
		app += real(cp)*real(cp) + imag(cp)*imag(cp)
		aqq += real(cq)*real(cq) + imag(cq)*imag(cq)
		apq += cmplx.Conj(cp) * cq
	}
	off := cmplx.Abs(apq)
	return off <= 1e-14*math.Sqrt(app*aqq) || off == 0
}

// atThreshold fills the m×n matrix w (m ≥ n ≥ 2) so that its columns 0
// and 1, the first pair Decompose tests, sit at its convergence threshold.
// Apart from row 0 the two columns have disjoint supports, so the Gram
// entry apq is the single product conj(w00)·w01 with no cancellation,
// and w01 = β·e^{iθ} moves it smoothly: β is the last double at which
// the pair is still skipped, moved by ulps doubles. The columns are
// about equally long, so rotating or not moves the values by about
// 1e-14 relative.
func atThreshold(rng *rand.Rand, w *Matrix, ulps int) *Matrix {
	m := w.Rows
	for i := range w.Data {
		w.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	w.Set(1, 0, 0) // row 1 belongs to column 1
	var n0, n1 float64
	for i := 2; i < m; i++ {
		if rng.IntN(2) == 0 {
			w.Set(i, 0, 0)
		} else {
			w.Set(i, 1, 0)
		}
	}
	for i := 0; i < m; i++ {
		n0 += sqAbs(w.At(i, 0))
		if i > 0 {
			n1 += sqAbs(w.At(i, 1))
		}
	}
	s := complex(math.Sqrt(n0/n1)*(1+1e-3*rng.NormFloat64()), 0)
	for i := 1; i < m; i++ {
		w.Set(i, 1, s*w.At(i, 1))
	}
	phase := cmplx.Rect(1, 2*math.Pi*rng.Float64())
	mix := func(beta float64) *Matrix {
		w.Set(0, 1, complex(beta, 0)*phase)
		return w
	}
	lo, hi := 0.0, 1e-12*math.Sqrt(n0)
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if gramTest(mix(mid), 0, 1) {
			lo = mid
		} else {
			hi = mid
		}
	}
	beta := lo
	for ; ulps > 0; ulps-- {
		beta = math.Nextafter(beta, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		beta = math.Nextafter(beta, 0)
	}
	return mix(beta)
}

func sqAbs(x complex128) float64 { return real(x)*real(x) + imag(x)*imag(x) }

// families weights variedMatrix's families for the bit-identity test.
// Subnormal entries (3) and Gram sums near underflow or overflow (6)
// often run all 60 sweeps, about 20× the cost of the others, so they
// come up once in 32 trials each and the others five times.
var families = [32]int{
	0, 1, 2, 4, 5, 7, 0, 1, 2, 4, 5, 7, 0, 1, 2, 4, 5, 7,
	0, 1, 2, 4, 5, 7, 0, 1, 2, 4, 5, 7, 3, 6,
}

// TestJacobiValuesBitIdentical: on 100,000 matrices of every shape of up
// to 16 entries, drawn from variedMatrix's eight families, jacobiValues,
// SingularValues and Cond (on one in eight) give Decompose's values bit
// for bit, and so does jacobiValuesPair on each pair of consecutive
// trials, whose families and sweep counts differ. -short runs 2,000 per
// shape. Each shape draws into two matrices and decomposes in one
// scratch, so the oracle's arithmetic is Decompose's without its
// allocations.
func TestJacobiValuesBitIdentical(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("the compiler fuses a*b+c here, so the kernel and Decompose may round differently")
	}
	trials := 100_000
	if testing.Short() {
		trials = 2_000
	}
	for _, sh := range shapes() {
		rows, cols := sh[0], sh[1]
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(uint64(rows), uint64(cols)))
			ms := [2]*Matrix{New(rows, cols), New(rows, cols)}
			var wants [2][4]float64
			var sc svdScratch
			for trial := 0; trial < trials; trial++ {
				a, want := ms[trial%2], wants[trial%2][:min(rows, cols)]
				fillVaried(rng, a, families[trial%len(families)])
				copy(want, decompose(a, &sc).S)
				if err := checkValuesBits(a, want, trial%8 == 0); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if trial%2 == 1 {
					if err := checkPair(ms[0], a, wants[0][:len(want)], want); err != nil {
						t.Fatalf("trials %d and %d: %v", trial-1, trial, err)
					}
				}
			}
		})
	}
}

// TestCondsMatchesCond: Conds gives Cond's values bit for bit on runs
// that pair matrices of one shape, pairs whose shapes differ, 2×2 pairs
// (Cond's closed form), pairs with a part beyond the guard, more than 16
// entries and an odd last matrix, and allocates nothing on 4×4 pairs.
func TestCondsMatchesCond(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("the compiler fuses a*b+c here, so the kernel and Decompose may round differently")
	}
	rng := rand.New(rand.NewPCG(105, 106))
	var ms []*Matrix
	for _, sh := range [][2]int{{4, 4}, {4, 4}, {3, 2}, {2, 3}, {2, 2}, {2, 2}, {4, 4}, {4, 4}, {1, 5}, {1, 5}, {5, 4}, {5, 4}, {3, 3}} {
		ms = append(ms, variedMatrix(rng, sh[0], sh[1], 0))
	}
	ms[7].Data[3] = complex(1e300, 0)
	for n := range len(ms) + 1 {
		out := make([]float64, n)
		Conds(ms[:n], out)
		for k, m := range ms[:n] {
			if w := Cond(m); !sameBits(out[k:k+1], []float64{w}) {
				t.Fatalf("%d matrices: Conds[%d] = %v, Cond %v\n%v", n, k, out[k], w, m)
			}
		}
	}
	out := make([]float64, 2)
	if n := testing.AllocsPerRun(100, func() { Conds(ms[:2], out) }); n != 0 {
		t.Errorf("Conds on a 4x4 pair allocates %v times", n)
	}
}

// TestJacobiThresholdStraddled: the threshold family really straddles
// Decompose's convergence test, so the squared test's margin and its
// fallback are exercised.
func TestJacobiThresholdStraddled(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	skipped := map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		skipped[gramTest(atThreshold(rng, New(4, 4), rng.IntN(17)-8), 0, 1)]++
	}
	if skipped[true] < 50 || skipped[false] < 50 {
		t.Fatalf("threshold pairs skipped/rotated %d/%d of 200", skipped[true], skipped[false])
	}
}

// FuzzCondMatchesDecompose builds a matrix of up to 16 entries from the
// fuzz bytes: the first byte picks the shape, then each 8 bytes give one
// part's float64 bits, so NaN, ±Inf, subnormals and parts beyond the
// guard all occur. The remaining bytes build a second matrix of the same
// shape, whose parts are 0 once the bytes run out. Cond, SingularValues
// and jacobiValues on the first, and jacobiValuesPair on the two, must
// give Decompose's values bit for bit.
func FuzzCondMatchesDecompose(f *testing.F) {
	if fpexact.Contracts() {
		f.Skip("the compiler fuses a*b+c here, so the kernel and Decompose may round differently")
	}
	all := shapes()
	seed := func(shape int, parts ...float64) {
		b := []byte{byte(shape)}
		for _, x := range parts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b)
	}
	rng := rand.New(rand.NewPCG(103, 104))
	sq3 := -1 // the index of the 3×3 shape
	// Two matrices of each shape.
	for shape, sh := range all {
		parts := make([]float64, 4*sh[0]*sh[1])
		for i := range parts {
			parts[i] = rng.NormFloat64()
		}
		seed(shape, parts...)
		if sh == [2]int{3, 3} {
			sq3 = shape
		}
	}
	negZero := math.Copysign(0, -1)
	seed(sq3, 1, 0, 0, 1, math.NaN(), 0, 2, 2, 1, 1, 0, 3, 1, 2, 3, 4, 5, 6)
	seed(sq3, jacobiGuard, -jacobiGuard, 1, 0, 0, 1, math.Nextafter(jacobiGuard, math.Inf(1)), 3)
	seed(sq3, 4e-320, 1, math.Inf(-1), 0, 1e-310, 5e-324, negZero, 1, negZero, negZero)
	// A second matrix beyond the guard sends both through jacobiValues.
	seed(sq3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1e300, 1)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		sh := all[int(b[0])%len(all)]
		b = b[1:]
		part := func() float64 {
			if len(b) < 8 {
				return 0
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
			return x
		}
		matrix := func() *Matrix {
			a := New(sh[0], sh[1])
			for i := range a.Data {
				re := part()
				a.Data[i] = complex(re, part())
			}
			return a
		}
		a, a2 := matrix(), matrix()
		want, err := checkKernel(a, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPair(a, a2, want, Decompose(a2).S); err != nil {
			t.Fatal(err)
		}
	})
}
