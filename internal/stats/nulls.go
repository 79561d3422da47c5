package stats

import "math"

// DefaultNullDepthDB is the null-detection threshold used throughout the
// paper's §3.2.1: a configuration "exhibits a null" only if some subcarrier
// SNR sits at least this many dB below the median subcarrier SNR.
const DefaultNullDepthDB = 5.0

// Null describes the most significant frequency null of one per-subcarrier
// SNR curve: the subcarrier index with the minimum SNR, qualified by how far
// below the median that minimum sits.
type Null struct {
	// Subcarrier is the index (into the SNR vector) of the minimum.
	Subcarrier int
	// SNRdB is the SNR at the null.
	SNRdB float64
	// DepthDB is median(SNR) − SNR[null], i.e. how deep the null is.
	DepthDB float64
}

// MostSignificantNull finds the deepest null of the per-subcarrier SNR
// curve snrDB, following the paper's definition: the subcarrier of the
// minimum SNR, counted as a null only when it is at least minDepthDB below
// the median subcarrier SNR. The boolean reports whether the curve
// qualifies. An empty curve never qualifies.
func MostSignificantNull(snrDB []float64, minDepthDB float64) (Null, bool) {
	if len(snrDB) == 0 {
		return Null{}, false
	}
	minVal, minIdx := MinIdx(snrDB)
	med := Median(snrDB)
	depth := med - minVal
	n := Null{Subcarrier: minIdx, SNRdB: minVal, DepthDB: depth}
	return n, depth >= minDepthDB && !math.IsNaN(depth)
}

// NullMovement returns the distance, in subcarriers, between the most
// significant nulls of two SNR curves. Following Figure 5 of the paper, the
// pair contributes a sample only when *both* curves exhibit a null at least
// minDepthDB below their medians; the boolean reports that condition.
func NullMovement(snrA, snrB []float64, minDepthDB float64) (int, bool) {
	na, oka := MostSignificantNull(snrA, minDepthDB)
	nb, okb := MostSignificantNull(snrB, minDepthDB)
	if !oka || !okb {
		return 0, false
	}
	d := na.Subcarrier - nb.Subcarrier
	if d < 0 {
		d = -d
	}
	return d, true
}

// PairwiseNullMovements computes the null-movement sample set over all
// ordered pairs of configurations, exactly as Figure 5 does for the 64²
// pairs of PRESS element configurations. curves[i] is the per-subcarrier
// SNR of configuration i. Pairs where either curve lacks a qualifying null
// are skipped. The result holds one float per qualifying pair (float64 so
// it feeds directly into NewECDF).
func PairwiseNullMovements(curves [][]float64, minDepthDB float64) []float64 {
	var moves []float64
	for i := range curves {
		for j := range curves {
			if m, ok := NullMovement(curves[i], curves[j], minDepthDB); ok {
				moves = append(moves, float64(m))
			}
		}
	}
	return moves
}

// PairwiseMinSNRChanges computes |min(SNR_i) − min(SNR_j)| over all ordered
// pairs of configurations — the sample set behind the left panel of
// Figure 6 (change in minimum subcarrier SNR between pairs of PRESS
// element configurations). Empty curves are skipped.
func PairwiseMinSNRChanges(curves [][]float64) []float64 {
	var changes []float64
	for i := range curves {
		if len(curves[i]) == 0 {
			continue
		}
		mi := Min(curves[i])
		for j := range curves {
			if len(curves[j]) == 0 {
				continue
			}
			changes = append(changes, math.Abs(mi-Min(curves[j])))
		}
	}
	return changes
}

// MinPerCurve returns min(SNR) for each configuration curve — the sample
// set behind the right panel of Figure 6 (minimum SNR among subcarriers for
// all 64 PRESS element configurations). Empty curves yield NaN entries,
// which NewECDF subsequently drops.
func MinPerCurve(curves [][]float64) []float64 {
	mins := make([]float64, len(curves))
	for i, c := range curves {
		if len(c) == 0 {
			mins[i] = math.NaN()
			continue
		}
		mins[i] = Min(c)
	}
	return mins
}

// LargestPairDifference finds the pair of configuration curves with the
// largest single-subcarrier SNR difference — the selection rule of
// Figure 4, which plots "the two configurations that give the largest
// single-subcarrier SNR difference". It returns the two curve indices
// (i < j) and the difference in dB. Only pairs whose two curves have the
// same non-zero length are compared; NaN differences never win. On a
// tie it keeps the first pair and subcarrier in (i, j, subcarrier)
// order. It returns ok=false when no comparable pair exists.
//
// The result equals largestPairDifferenceRef's, the O(C²·K) scan over
// every pair, bit for bit; see pairScan for how it gets there in O(C·K).
func LargestPairDifference(curves [][]float64) (i, j int, diffDB float64, ok bool) {
	if len(curves) < 2 {
		return 0, 0, 0, false
	}
	if i, j, d, fast := pairScan(curves); fast {
		return i, j, d, true
	}
	return largestPairDifferenceRef(curves)
}

// pairScan is LargestPairDifference for curves of one non-zero length
// and finite values; fast is false for any other input. Rounding is
// monotone and fl(x−y) = −fl(y−x), so at subcarrier k the largest
// |x_a − x_b| over all pairs is fl(max_k − min_k). One pass finds D, the
// largest such range, and the first and last subcarriers reaching it. No
// pair exceeds D, so the reference's answer is the first (a, b, k) in its
// loop order with |x_a − x_b| = D, and only k in [kFirst, kLast] can
// match. Pairs other than the extremes can round to D, so that search
// tests every pair rather than assuming the extremes.
func pairScan(curves [][]float64) (i, j int, diffDB float64, fast bool) {
	n := len(curves[0])
	if n == 0 {
		return 0, 0, 0, false
	}
	for _, c := range curves {
		if len(c) != n {
			return 0, 0, 0, false
		}
	}
	d, kFirst, kLast := -1.0, 0, 0
	for k := 0; k < n; k++ {
		lo, hi := curves[0][k], curves[0][k]
		for _, c := range curves {
			x := c[k]
			if x-x != 0 { // NaN or ±Inf
				return 0, 0, 0, false
			}
			if x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
		if r := hi - lo; r > d {
			d, kFirst, kLast = r, k, k
		} else if r == d {
			kLast = k
		}
	}
	for a := range curves {
		for b := a + 1; b < len(curves); b++ {
			for k := kFirst; k <= kLast; k++ {
				if math.Abs(curves[a][k]-curves[b][k]) == d {
					return a, b, d, true
				}
			}
		}
	}
	return 0, 0, 0, false // unreachable: the extremes at kFirst reach D
}

// largestPairDifferenceRef is the reference LargestPairDifference: every
// pair at every subcarrier.
func largestPairDifferenceRef(curves [][]float64) (i, j int, diffDB float64, ok bool) {
	bestI, bestJ, best := -1, -1, math.Inf(-1)
	for a := 0; a < len(curves); a++ {
		for b := a + 1; b < len(curves); b++ {
			if len(curves[a]) == 0 || len(curves[a]) != len(curves[b]) {
				continue
			}
			for k := range curves[a] {
				d := math.Abs(curves[a][k] - curves[b][k])
				if d > best {
					bestI, bestJ, best = a, b, d
				}
			}
		}
	}
	if bestI < 0 {
		return 0, 0, 0, false
	}
	return bestI, bestJ, best, true
}
