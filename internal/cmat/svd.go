package cmat

import (
	"math"
	"math/cmplx"
	"sort"
)

// SVD holds a thin singular value decomposition a = U·Σ·V^H, with U m×n
// (orthonormal columns), S the n singular values in descending order, and
// V n×n unitary. Produced by Decompose.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// Decompose computes the thin SVD of a by one-sided Jacobi rotations.
// The method orthogonalizes the columns of a working copy of a; on
// convergence the column norms are the singular values, the normalized
// columns form U, and the accumulated rotations form V. One-sided Jacobi
// is slow for large matrices but unconditionally robust and more than fast
// enough for the ≤ dozens-sized channel matrices in this repository.
//
// Matrices with more columns than rows are handled by decomposing the
// conjugate transpose and swapping U and V.
func Decompose(a *Matrix) *SVD { return decompose(a, new(svdScratch)) }

// svdScratch is decompose's working storage. A caller that decomposes
// many matrices passes one scratch to every call; each result lives in
// the scratch until the next call.
type svdScratch struct {
	t, w, v, u, vOut Matrix
	s                []float64
	cols             svdCols
	out              SVD
}

// svdCol is one swept column: its index and norm.
type svdCol struct {
	idx int
	s   float64
}

// svdCols sorts swept columns by descending norm. sort.Sort allocates
// nothing here and runs the same algorithm as sort.Slice, so columns of
// equal norm keep sort.Slice's order in U and V.
type svdCols []svdCol

func (c svdCols) Len() int           { return len(c) }
func (c svdCols) Less(i, j int) bool { return c[i].s > c[j].s }
func (c svdCols) Swap(i, j int)      { c[i], c[j] = c[j], c[i] }

// resize makes m a rows×cols matrix, reusing its storage when that is
// large enough. The contents are unspecified.
func resize(m *Matrix, rows, cols int) *Matrix {
	if n := rows * cols; rows > 0 && cols > 0 && cap(m.Data) >= n {
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	} else {
		*m = *New(rows, cols)
	}
	return m
}

// decompose is Decompose working in sc's storage.
func decompose(a *Matrix, sc *svdScratch) *SVD {
	if a.Rows < a.Cols {
		t := resize(&sc.t, a.Cols, a.Rows)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				t.Set(j, i, cmplx.Conj(a.At(i, j)))
			}
		}
		s := *decompose(t, sc)
		sc.out = SVD{U: s.V, S: s.S, V: s.U}
		return &sc.out
	}
	m, n := a.Rows, a.Cols
	w := resize(&sc.w, m, n) // working copy whose columns get orthogonalized
	copy(w.Data, a.Data)
	v := resize(&sc.v, n, n)
	clear(v.Data)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const (
		eps       = 1e-14
		maxSweeps = 60
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Gram entries of columns p and q.
				var app, aqq float64
				var apq complex128
				for i := 0; i < m; i++ {
					cp, cq := w.At(i, p), w.At(i, q)
					app += real(cp)*real(cp) + imag(cp)*imag(cp)
					aqq += real(cq)*real(cq) + imag(cq)*imag(cq)
					apq += cmplx.Conj(cp) * cq
				}
				off := cmplx.Abs(apq)
				if off <= eps*math.Sqrt(app*aqq) || off == 0 {
					continue
				}
				rotated = true
				// Factor out the phase of the inner product so the
				// remaining 2×2 problem is real symmetric, then apply the
				// classic Jacobi rotation.
				phase := apq / complex(off, 0) // e^{iφ}
				zeta := (aqq - app) / (2 * off)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t

				csC := complex(cs, 0)
				snC := complex(sn, 0)
				phC := cmplx.Conj(phase) // e^{-iφ}
				for i := 0; i < m; i++ {
					cp, cq := w.At(i, p), w.At(i, q)
					bq := phC * cq // phase-aligned column q
					w.Set(i, p, csC*cp-snC*bq)
					w.Set(i, q, snC*cp+csC*bq)
				}
				for i := 0; i < n; i++ {
					vp, vq := v.At(i, p), v.At(i, q)
					bq := phC * vq
					v.Set(i, p, csC*vp-snC*bq)
					v.Set(i, q, snC*vp+csC*bq)
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Extract singular values (column norms) and normalize U.
	sc.cols = sc.cols[:0]
	for j := 0; j < n; j++ {
		var ss float64
		for i := 0; i < m; i++ {
			x := w.At(i, j)
			ss += real(x)*real(x) + imag(x)*imag(x)
		}
		sc.cols = append(sc.cols, svdCol{idx: j, s: math.Sqrt(ss)})
	}
	sort.Sort(&sc.cols)

	u := resize(&sc.u, m, n)
	vOut := resize(&sc.vOut, n, n)
	if cap(sc.s) < n {
		sc.s = make([]float64, n)
	}
	s := sc.s[:n]
	for jNew, c := range sc.cols {
		s[jNew] = c.s
		inv := 0.0
		if c.s > 0 {
			inv = 1 / c.s
		}
		for i := 0; i < m; i++ {
			u.Set(i, jNew, w.At(i, c.idx)*complex(inv, 0))
		}
		for i := 0; i < n; i++ {
			vOut.Set(i, jNew, v.At(i, c.idx))
		}
	}
	sc.out = SVD{U: u, S: s, V: vOut}
	return &sc.out
}

// SingularValues returns just the singular values of a in descending
// order, using the closed-form 2×2 path when applicable. Other shapes go
// through jacobiValues, which returns Decompose(a).S bit for bit.
func SingularValues(a *Matrix) []float64 {
	if a.Rows == 2 && a.Cols == 2 {
		s1, s2 := SingularValues2x2(a.At(0, 0), a.At(0, 1), a.At(1, 0), a.At(1, 1))
		return []float64{s1, s2}
	}
	s := make([]float64, min(a.Rows, a.Cols))
	jacobiValues(a, s)
	return s
}

// jacobiValues writes the singular values of a into s (length
// min(a.Rows, a.Cols)) in descending order, equal to Decompose(a).S bit
// for bit, NaNs included (DESIGN.md §9 and §11). It is Decompose without
// U and V, since the column sweep never reads V, on split real and
// imaginary parts of a working copy on the stack. The Gram sums, the
// sweep order and the rotation are Decompose's, with four exact
// rewrites: real rotation scalars, an inline hypot, an inline
// real-divisor phase, and a convergence test on squares. Matrices of
// more than 16 entries, and any part that is not finite or exceeds
// jacobiGuard, go to Decompose itself.
func jacobiValues(a *Matrix, s []float64) {
	if a.Rows*a.Cols > 16 || !withinJacobiGuard(a.Data) {
		copy(s, Decompose(a).S)
		return
	}
	var re, im [16]float64
	m, n := jacobiLoad(a, &re, &im)
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			// Columns resliced to len(pr) need no bounds checks below.
			pr := re[p*m : p*m+m]
			pi := im[p*m:][:len(pr)]
			for q := p + 1; q < n; q++ {
				qr, qi := re[q*m:][:len(pr)], im[q*m:][:len(pr)]
				// Gram entries: app, aqq, and apq = Σ conj(cp)·cq = gr + i·gi.
				var app, aqq, gr, gi float64
				for i := range pr {
					a, b, c, d := pr[i], pi[i], qr[i], qi[i]
					app += a*a + b*b
					aqq += c*c + d*d
					gr += a*c + b*d
					gi += a*d - b*c
				}
				// Decompose skips the pair when off <= eps·√(app·aqq) or
				// off == 0, with off = |apq|. Compare the squares instead
				// when both lie in normal range and differ by more than
				// margin; otherwise evaluate Decompose's test.
				aa := app * aqq
				g2, r2 := gr*gr+gi*gi, jacobiEps2*aa
				decided := minNormal <= g2 && g2 <= math.MaxFloat64 && minNormal <= r2 && r2 <= math.MaxFloat64
				if decided && g2 < r2*(1-jacobiMargin) {
					continue
				}
				// off = math.Hypot(gr, gi), as cmplx.Abs computes it; off is
				// 0 exactly when big is.
				ar, ai := math.Abs(gr), math.Abs(gi)
				big, small := max(ar, ai), min(ar, ai)
				if big == 0 {
					continue
				}
				small /= big
				off := big * math.Sqrt(1+small*small)
				if !(decided && g2 > r2*(1+jacobiMargin)) && off <= jacobiEps*math.Sqrt(aa) {
					continue
				}
				rotated = true
				// phase = apq / complex(off, 0): Go's division (Smith's
				// algorithm) with the ratio r = 0/off = +0 and the
				// denominator off exactly.
				const r = 0.0
				phr, phi := (gr+gi*r)/off, (gi-gr*r)/off
				zeta := (aqq - app) / (2 * off)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				for i := range pr {
					a, b, c, d := pr[i], pi[i], qr[i], qi[i]
					br, bi := phr*c+phi*d, phr*d-phi*c // conj(phase)·cq
					pr[i], pi[i] = cs*a-sn*br, cs*b-sn*bi
					qr[i], qi[i] = sn*a+cs*br, sn*b+cs*bi
				}
			}
		}
		if !rotated {
			break
		}
	}
	jacobiNorms(&re, &im, m, n, s)
}

// The constants of jacobiValues' sweep; the pair kernel loads them as Go
// rounds them (DESIGN.md §16).
const (
	jacobiEps       = 1e-14
	jacobiEps2      = jacobiEps * jacobiEps
	jacobiMargin    = 1e-12 // far above the few ulps between the squared and original tests
	jacobiMaxSweeps = 60
)

// jacobiLoad writes a, of at most 16 entries, into re and im as the
// column-major working copy of jacobiValues' sweep: entry (i, j) at
// j*m+i, so each column is one contiguous run. Decompose works on the
// conjugate transpose of a wide matrix, which has the same singular
// values; a's row-major layout is then that matrix's column-major one.
// It returns the working copy's shape, m ≥ n.
func jacobiLoad(a *Matrix, re, im *[16]float64) (m, n int) {
	m, n = a.Rows, a.Cols
	if m < n {
		for k, x := range a.Data {
			re[k], im[k] = real(x), -imag(x)
		}
		return n, m
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x := a.Data[i*n+j]
			re[j*m+i], im[j*m+i] = real(x), imag(x)
		}
	}
	return m, n
}

// jacobiNorms writes the norms of the n swept columns of length m in re
// and im into s, in descending order.
func jacobiNorms(re, im *[16]float64, m, n int, s []float64) {
	for j := 0; j < n; j++ {
		var ss float64
		for i := j * m; i < j*m+m; i++ {
			ss += re[i]*re[i] + im[i]*im[i]
		}
		s[j] = math.Sqrt(ss)
	}
	// Every value is +0 or more, so equal values are equal bit for bit,
	// and a NaN column spreads NaN to every column through the sweep, so
	// NaNs never mix with numbers: the descending order is unique, and
	// any sort gives Decompose's. Insertion sort is O(n²) against the
	// sweep's O(n³) and allocates nothing.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s[j] > s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// jacobiGuard bounds the parts jacobiValues works on itself. A matrix of
// up to 16 entries has Frobenius norm at most √32·2^500, Jacobi rotations
// keep it to within rounding, and so every Gram sum and 2·off stay below
// 2^1012. Apart from the range-checked squares of the convergence test,
// only app·aqq and ζ² can overflow, and Decompose computes both with the
// same real expressions.
const jacobiGuard = 0x1p500

const minNormal = 0x1p-1022

// withinJacobiGuard reports whether every part of data is finite and at
// most jacobiGuard in magnitude.
func withinJacobiGuard(data []complex128) bool {
	for _, x := range data {
		if !(math.Abs(real(x)) <= jacobiGuard && math.Abs(imag(x)) <= jacobiGuard) {
			return false
		}
	}
	return true
}

// SingularValues2x2 returns the two singular values (descending) of the
// 2×2 complex matrix [[a, b], [c, d]] in closed form, via the eigenvalues
// of the Gram matrix. MIMO condition-number sweeps call this once per
// subcarrier per configuration, so it avoids the iterative SVD entirely.
func SingularValues2x2(a, b, c, d complex128) (float64, float64) {
	// Gram matrix G = A^H A = [[g11, g12], [conj(g12), g22]] (Hermitian).
	// Its trace and determinant fix both eigenvalues, so the off-diagonal
	// entry is never needed explicitly.
	g11 := real(a)*real(a) + imag(a)*imag(a) + real(c)*real(c) + imag(c)*imag(c)
	g22 := real(b)*real(b) + imag(b)*imag(b) + real(d)*real(d) + imag(d)*imag(d)

	tr := g11 + g22
	// det(G) = |det(A)|².
	detA := a*d - b*c
	det := real(detA)*real(detA) + imag(detA)*imag(detA)

	disc := tr*tr - 4*det
	if disc < 0 {
		disc = 0 // numerical guard; G is PSD so this is roundoff
	}
	root := math.Sqrt(disc)
	l1 := (tr + root) / 2
	l2 := (tr - root) / 2
	if l2 < 0 {
		l2 = 0
	}
	return math.Sqrt(l1), math.Sqrt(l2)
}

// Cond returns the 2-norm condition number σ_max/σ_min of a. It returns
// +Inf for a rank-deficient matrix.
// It allocates nothing for matrices of up to 16 entries whose parts are
// finite and at most 2^500 in magnitude.
func Cond(a *Matrix) float64 {
	var smax, smin float64
	if a.Rows == 2 && a.Cols == 2 {
		smax, smin = SingularValues2x2(a.At(0, 0), a.At(0, 1), a.At(1, 0), a.At(1, 1))
	} else {
		var buf [4]float64
		var s []float64
		if n := min(a.Rows, a.Cols); n <= len(buf) {
			s = buf[:n]
		} else {
			s = make([]float64, n)
		}
		jacobiValues(a, s)
		smax, smin = s[0], s[len(s)-1]
	}
	return condRatio(smax, smin)
}

// condRatio is Cond's quotient of the largest and smallest singular value.
func condRatio(smax, smin float64) float64 {
	if smin == 0 {
		return math.Inf(1)
	}
	return smax / smin
}

// Conds writes Cond(ms[k]) into out[k] for every k, bit for bit, and
// allocates nothing where Cond does not. It takes the matrices in pairs,
// ms[0] with ms[1], ms[2] with ms[3] and so on: on amd64 the two of a
// pair of one shape of up to 16 entries, other than 2×2, are swept at
// once by a two-lane SSE2 kernel (DESIGN.md §16). Any other pair, and an
// odd last matrix, go through Cond one matrix at a time.
func Conds(ms []*Matrix, out []float64) {
	for k := 0; k < len(ms); k += 2 {
		if k+1 == len(ms) {
			out[k] = Cond(ms[k])
			break
		}
		a, b := ms[k], ms[k+1]
		if a.Rows != b.Rows || a.Cols != b.Cols || a.Rows*a.Cols > 16 || a.Rows == 2 && a.Cols == 2 {
			out[k], out[k+1] = Cond(a), Cond(b)
			continue
		}
		var sa, sb [4]float64
		n := min(a.Rows, a.Cols)
		jacobiValuesPair(a, b, sa[:n], sb[:n])
		out[k], out[k+1] = condRatio(sa[0], sa[n-1]), condRatio(sb[0], sb[n-1])
	}
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse a⁺ = V·Σ⁺·U^H.
// Singular values below rcond·σ_max are treated as zero.
func PseudoInverse(a *Matrix, rcond float64) *Matrix {
	svd := Decompose(a)
	n := len(svd.S)
	cutoff := 0.0
	if n > 0 {
		cutoff = rcond * svd.S[0]
	}
	// a⁺ = V · diag(1/σ) · U^H, computed as V·(Σ⁺·U^H).
	ut := svd.U.ConjTranspose() // n×m
	for i := 0; i < n; i++ {
		inv := 0.0
		if svd.S[i] > cutoff && svd.S[i] > 0 {
			inv = 1 / svd.S[i]
		}
		for j := 0; j < ut.Cols; j++ {
			ut.Set(i, j, ut.At(i, j)*complex(inv, 0))
		}
	}
	return svd.V.Mul(ut)
}
