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
func Decompose(a *Matrix) *SVD {
	if a.Rows < a.Cols {
		s := Decompose(a.ConjTranspose())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	m, n := a.Rows, a.Cols
	w := a.Clone() // working copy whose columns get orthogonalized
	v := Identity(n)

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
	type col struct {
		idx int
		s   float64
	}
	cols := make([]col, n)
	for j := 0; j < n; j++ {
		var ss float64
		for i := 0; i < m; i++ {
			x := w.At(i, j)
			ss += real(x)*real(x) + imag(x)*imag(x)
		}
		cols[j] = col{idx: j, s: math.Sqrt(ss)}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].s > cols[j].s })

	u := New(m, n)
	vOut := New(n, n)
	s := make([]float64, n)
	for jNew, c := range cols {
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
	return &SVD{U: u, S: s, V: vOut}
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
// min(a.Rows, a.Cols)) in descending order. It is Decompose without U
// and V: the column sweep never reads V, so the column norms, and hence
// the values, do not depend on it. The Gram, rotation and norm
// expressions are Decompose's, and descending order is unique (see the
// sort below), so s equals Decompose(a).S bit for bit, NaNs included.
// Matrices of up to 16 entries are worked on the stack.
func jacobiValues(a *Matrix, s []float64) {
	m, n := a.Rows, a.Cols
	var buf [16]complex128
	var w []complex128
	if m*n <= len(buf) {
		w = buf[:m*n]
	} else {
		w = make([]complex128, m*n)
	}
	if m < n {
		// Decompose works on the conjugate transpose, which has the same
		// singular values.
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				w[j*m+i] = cmplx.Conj(a.Data[i*n+j])
			}
		}
		m, n = n, m
	} else {
		copy(w, a.Data)
	}

	const (
		eps       = 1e-14
		maxSweeps = 60
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq float64
				var apq complex128
				for i := 0; i < m; i++ {
					cp, cq := w[i*n+p], w[i*n+q]
					app += real(cp)*real(cp) + imag(cp)*imag(cp)
					aqq += real(cq)*real(cq) + imag(cq)*imag(cq)
					apq += cmplx.Conj(cp) * cq
				}
				off := cmplx.Abs(apq)
				if off <= eps*math.Sqrt(app*aqq) || off == 0 {
					continue
				}
				rotated = true
				phase := apq / complex(off, 0)
				zeta := (aqq - app) / (2 * off)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t

				csC := complex(cs, 0)
				snC := complex(sn, 0)
				phC := cmplx.Conj(phase)
				for i := 0; i < m; i++ {
					cp, cq := w[i*n+p], w[i*n+q]
					bq := phC * cq
					w[i*n+p] = csC*cp - snC*bq
					w[i*n+q] = snC*cp + csC*bq
				}
			}
		}
		if !rotated {
			break
		}
	}

	for j := 0; j < n; j++ {
		var ss float64
		for i := 0; i < m; i++ {
			x := w[i*n+j]
			ss += real(x)*real(x) + imag(x)*imag(x)
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
// It allocates nothing for matrices of up to 16 entries.
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
	if smin == 0 {
		return math.Inf(1)
	}
	return smax / smin
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
