package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// flatWithNull builds a flat SNR curve at base dB with one dip of the given
// depth at subcarrier idx.
func flatWithNull(n int, base float64, idx int, depth float64) []float64 {
	snr := make([]float64, n)
	for i := range snr {
		snr[i] = base
	}
	snr[idx] = base - depth
	return snr
}

func TestMostSignificantNull(t *testing.T) {
	snr := flatWithNull(52, 40, 17, 12)
	null, ok := MostSignificantNull(snr, DefaultNullDepthDB)
	if !ok {
		t.Fatal("expected a qualifying null")
	}
	if null.Subcarrier != 17 || null.SNRdB != 28 || !almostEqual(null.DepthDB, 12, 1e-12) {
		t.Errorf("null = %+v", null)
	}
}

func TestMostSignificantNullRejectsShallow(t *testing.T) {
	snr := flatWithNull(52, 40, 5, 3) // only 3 dB below median
	if _, ok := MostSignificantNull(snr, DefaultNullDepthDB); ok {
		t.Error("3 dB dip should not qualify with a 5 dB threshold")
	}
}

func TestMostSignificantNullEmpty(t *testing.T) {
	if _, ok := MostSignificantNull(nil, DefaultNullDepthDB); ok {
		t.Error("empty curve should not have a null")
	}
}

func TestNullMovement(t *testing.T) {
	a := flatWithNull(52, 40, 10, 10)
	b := flatWithNull(52, 40, 19, 10)
	m, ok := NullMovement(a, b, DefaultNullDepthDB)
	if !ok || m != 9 {
		t.Errorf("NullMovement = (%d,%v), want (9,true)", m, ok)
	}
	// Symmetric.
	m2, _ := NullMovement(b, a, DefaultNullDepthDB)
	if m2 != m {
		t.Errorf("NullMovement not symmetric: %d vs %d", m, m2)
	}
}

func TestNullMovementRequiresBothNulls(t *testing.T) {
	a := flatWithNull(52, 40, 10, 10)
	flat := flatWithNull(52, 40, 0, 0)
	if _, ok := NullMovement(a, flat, DefaultNullDepthDB); ok {
		t.Error("pair with one flat curve should not qualify")
	}
}

func TestPairwiseNullMovements(t *testing.T) {
	curves := [][]float64{
		flatWithNull(52, 40, 10, 10),
		flatWithNull(52, 40, 13, 10),
		flatWithNull(52, 40, 10, 1), // no qualifying null
	}
	moves := PairwiseNullMovements(curves, DefaultNullDepthDB)
	// Qualifying pairs: (0,0)=0 (0,1)=3 (1,0)=3 (1,1)=0.
	if len(moves) != 4 {
		t.Fatalf("got %d samples, want 4: %v", len(moves), moves)
	}
	sum := 0.0
	for _, m := range moves {
		sum += m
	}
	if sum != 6 {
		t.Errorf("sum of movements = %v, want 6", sum)
	}
}

func TestPairwiseMinSNRChanges(t *testing.T) {
	curves := [][]float64{
		{30, 40}, {20, 40},
	}
	changes := PairwiseMinSNRChanges(curves)
	if len(changes) != 4 {
		t.Fatalf("got %d samples, want 4", len(changes))
	}
	// |30-30|, |30-20|, |20-30|, |20-20| => two zeros and two tens.
	var zeros, tens int
	for _, c := range changes {
		switch c {
		case 0:
			zeros++
		case 10:
			tens++
		}
	}
	if zeros != 2 || tens != 2 {
		t.Errorf("changes = %v", changes)
	}
}

func TestMinPerCurve(t *testing.T) {
	mins := MinPerCurve([][]float64{{3, 1, 2}, {}, {5}})
	if mins[0] != 1 || !math.IsNaN(mins[1]) || mins[2] != 5 {
		t.Errorf("mins = %v", mins)
	}
}

func TestLargestPairDifference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		curves [][]float64
		i, j   int
		d      float64
		ok     bool
	}{
		{"dip", [][]float64{{40, 40, 40}, {40, 15, 40}, {40, 38, 40}}, 0, 1, 25, true},
		{"first pair wins a tie", [][]float64{{0, 5}, {5, 0}, {5, 5}}, 0, 1, 5, true},
		{"no curves", nil, 0, 0, 0, false},
		// Every pair of equal non-zero length is compared, whatever the
		// first curve's length.
		{"shorter than the first", [][]float64{{1, 2, 3}, {5}, {9}}, 1, 2, 4, true},
		{"longer than the first", [][]float64{{1}, {1, 2, 100}, {1, 2, 0}, {7}}, 1, 2, 100, true},
		{"empty curves skipped", [][]float64{{}, {3}, {}, {1}}, 1, 3, 2, true},
		{"NaN never wins", [][]float64{{math.NaN(), 1}, {0, 4}}, 0, 1, 3, true},
		{"all NaN", [][]float64{{math.NaN()}, {0}}, 0, 0, 0, false},
		{"infinite difference", [][]float64{{0, math.Inf(1)}, {1, 0}}, 0, 1, math.Inf(1), true},
	} {
		i, j, d, ok := LargestPairDifference(tc.curves)
		if i != tc.i || j != tc.j || d != tc.d || ok != tc.ok {
			t.Errorf("%s: got (%d, %d, %v, %v), want (%d, %d, %v, %v)",
				tc.name, i, j, d, ok, tc.i, tc.j, tc.d, tc.ok)
		}
	}
}

func TestLargestPairDifferenceNotEnoughCurves(t *testing.T) {
	if _, _, _, ok := LargestPairDifference([][]float64{{1, 2}}); ok {
		t.Error("single curve should not produce a pair")
	}
	if _, _, _, ok := LargestPairDifference([][]float64{{1, 2}, {1}}); ok {
		t.Error("mismatched lengths should not produce a pair")
	}
}

// pairCurves returns a random curve set for the differential test. Modes
// 0–2 give the fast path's input (one length, finite values): normal
// values; small integers, so exact ties are common; and values near 1e16,
// where the unit in the last place is 2, so differences between
// non-extreme pairs round to the largest range. Modes 3 and 4 give the
// fallback's input: ragged and empty curves, and NaN and ±Inf values.
func pairCurves(rng *rand.Rand, mode int) [][]float64 {
	near1e16 := []float64{1e16 - 2, 1e16, 1e16 + 2, 1e16 + 4, -1, -0.5, 0, 0.5, 1, 1.5}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	c, k := rng.IntN(9), 1+rng.IntN(8)
	curves := make([][]float64, c)
	for a := range curves {
		n := k
		if mode == 3 {
			n = rng.IntN(3)
		}
		curves[a] = make([]float64, n)
		for x := range curves[a] {
			switch mode {
			case 0, 3:
				curves[a][x] = 30 + 8*rng.NormFloat64()
			case 1:
				curves[a][x] = float64(rng.IntN(4))
			case 2:
				curves[a][x] = near1e16[rng.IntN(len(near1e16))]
			case 4:
				curves[a][x] = float64(rng.IntN(4))
				if rng.IntN(4) == 0 {
					curves[a][x] = specials[rng.IntN(len(specials))]
				}
			}
		}
	}
	return curves
}

// TestLargestPairDifferenceMatchesReference checks the O(C·K) scan
// against the quadratic reference bit for bit, ties included. Both only
// subtract and compare, so no fused multiply-add can separate them.
func TestLargestPairDifferenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 20000; trial++ {
		mode := trial % 5
		curves := pairCurves(rng, mode)
		i, j, d, ok := LargestPairDifference(curves)
		ri, rj, rd, rok := largestPairDifferenceRef(curves)
		if i != ri || j != rj || d != rd || ok != rok {
			t.Fatalf("mode %d, curves %v: got (%d, %d, %v, %v), reference (%d, %d, %v, %v)",
				mode, curves, i, j, d, ok, ri, rj, rd, rok)
		}
		if mode >= 3 || len(curves) < 2 {
			continue
		}
		if _, _, _, fast := pairScan(curves); !fast {
			t.Fatalf("mode %d, curves %v: fast path not taken", mode, curves)
		}
	}
}

func TestLargestPairDifferenceAllocs(t *testing.T) {
	curves := randCurves(rand.New(rand.NewPCG(17, 19)), 64, 52)
	if n := testing.AllocsPerRun(20, func() { LargestPairDifference(curves) }); n != 0 {
		t.Errorf("LargestPairDifference(64x52) allocates %v times", n)
	}
}

// randCurves returns c SNR-like curves of k subcarriers.
func randCurves(rng *rand.Rand, c, k int) [][]float64 {
	curves := make([][]float64, c)
	for a := range curves {
		curves[a] = make([]float64, k)
		for x := range curves[a] {
			curves[a][x] = 30 + 8*rng.NormFloat64()
		}
	}
	return curves
}

// BenchmarkLargestPairDifference times Figure 4's pair selection over
// 64 configurations × 52 subcarriers. It allocates nothing.
var sinkDiff float64

func BenchmarkLargestPairDifference(b *testing.B) {
	curves := randCurves(rand.New(rand.NewPCG(23, 29)), 64, 52)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, sinkDiff, _ = LargestPairDifference(curves)
	}
}

// Property: null movement is bounded by the curve length and symmetric for
// random curves.
func TestNullMovementBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	const n = 52
	for trial := 0; trial < 300; trial++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = 30 + rng.NormFloat64()*8
			b[i] = 30 + rng.NormFloat64()*8
		}
		ma, oka := NullMovement(a, b, DefaultNullDepthDB)
		mb, okb := NullMovement(b, a, DefaultNullDepthDB)
		if oka != okb || ma != mb {
			t.Fatalf("asymmetric null movement (trial %d)", trial)
		}
		if oka && (ma < 0 || ma >= n) {
			t.Fatalf("movement %d out of bounds (trial %d)", ma, trial)
		}
	}
}
