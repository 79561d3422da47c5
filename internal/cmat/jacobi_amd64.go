package cmat

import "math"

// jacobiValuesPair writes jacobiValues(a, sa) and jacobiValues(b, sb),
// bit for bit, for a and b of one shape of up to 16 entries. When every
// part of both is within jacobiGuard, the SSE2 kernel jacobiSweepPair
// sweeps the two working copies at once, one per lane; otherwise each
// matrix goes through jacobiValues (DESIGN.md §16).
func jacobiValuesPair(a, b *Matrix, sa, sb []float64) {
	if !withinJacobiGuard(a.Data) || !withinJacobiGuard(b.Data) {
		jacobiValues(a, sa)
		jacobiValues(b, sb)
		return
	}
	var re, im [2][16]float64
	m, n := jacobiLoad(a, &re[0], &im[0])
	jacobiLoad(b, &re[1], &im[1])
	var w [16][4]float64
	for e := range m * n {
		w[e] = [4]float64{re[0][e], re[1][e], im[0][e], im[1][e]}
	}
	jacobiSweepPair(&w, m, n, jacobiMaxSweeps)
	for e := range m * n {
		re[0][e], re[1][e], im[0][e], im[1][e] = w[e][0], w[e][1], w[e][2], w[e][3]
	}
	jacobiNorms(&re[0], &im[0], m, n, sa)
	jacobiNorms(&re[1], &im[1], m, n, sb)
}

// jacobiLanes holds the constants of jacobiValues' sweep as Go rounds
// them there, each twice, one per lane of an XMM register. The kernel
// loads them from here by byte offset (jacobi_amd64.s).
var jacobiLanes = [...][2]float64{
	{jacobiEps2, jacobiEps2},
	{1 - jacobiMargin, 1 - jacobiMargin},
	{1 + jacobiMargin, 1 + jacobiMargin},
	{minNormal, minNormal},
	{math.MaxFloat64, math.MaxFloat64},
	{jacobiEps, jacobiEps},
	{1, 1},
	{2, 2},
	{signBit, signBit},
}

// signBit is -0: only the sign bit set, the mask of math.Abs and
// math.Copysign.
var signBit = math.Float64frombits(1 << 63)

// jacobiSweepPair runs jacobiValues' sweep (at most sweeps of them) on
// two m×n working copies at once (jacobi_amd64.s). Entry e of the
// column-major copies is w[e] = [re₀, re₁, im₀, im₁]: lane 0 holds the
// first matrix and lane 1 the second. Each packed operation is the Go
// expression's own, with the same association. A lane whose pair test
// skips keeps its parts by a bit-select, and the sweeps go on until
// neither lane rotates.
//
//go:noescape
func jacobiSweepPair(w *[16][4]float64, m, n, sweeps int)
