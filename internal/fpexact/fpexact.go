// Package fpexact probes how this build rounds floating point, for the
// tests that assert a fast path bit for bit against its reference.
package fpexact

import "math"

//go:noinline
func mulAdd(a, b, c float64) float64 { return a*b + c }

// Contracts reports whether the compiler fuses a*b+c into one rounding
// (FMA) on this target. The Go spec allows fusion, and it may fuse a fast
// path and its reference differently, or change the last bits of the
// physics, so bit-identity holds only where it does not happen (amd64
// with Go's default GOAMD64=v1, among others). mulAdd is not inlined so
// that the probe is not constant-folded.
func Contracts() bool {
	a := 1 + 0x1p-30
	return mulAdd(a, a, -1) == math.FMA(a, a, -1)
}
