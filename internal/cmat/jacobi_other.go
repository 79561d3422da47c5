//go:build !amd64

package cmat

// jacobiValuesPair is two calls of jacobiValues on targets without an
// assembly body.
func jacobiValuesPair(a, b *Matrix, sa, sb []float64) {
	jacobiValues(a, sa)
	jacobiValues(b, sb)
}
