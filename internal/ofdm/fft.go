package ofdm

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"press/internal/rfphys"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x, whose length must be a power of two. The convention is
// the engineering DFT: X[k] = Σ_n x[n]·e^{-j2πkn/N}, no normalization.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("ofdm: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := rfphys.Cis(step * float64(k))
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
	return nil
}

// IFFT computes the in-place inverse FFT with 1/N normalization, the
// exact inverse of FFT.
func IFFT(x []complex128) error {
	n := len(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	inv := complex(1/float64(n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
	return nil
}

// dftNaive is the O(N²) reference used by the tests.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			sum += x[t] * rfphys.Cis(-2*math.Pi*float64(k*t)/float64(n))
		}
		out[k] = sum
	}
	return out
}
