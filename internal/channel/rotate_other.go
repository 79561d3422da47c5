//go:build !amd64

package channel

// rotate4 is rotate4Go on targets without an assembly body.
func rotate4(h, v0, v1, v2, v3 []complex128, p0, p1, p2, p3 complex128) {
	rotate4Go(h, v0, v1, v2, v3, p0, p1, p2, p3)
}
