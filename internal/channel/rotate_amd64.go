package channel

// rotate4 computes what rotate4Go does, bit for bit: the SSE2 kernel
// takes the subcarriers in pairs, and an odd last one goes through
// rotate4Go. Each v must be at least as long as h.
func rotate4(h, v0, v1, v2, v3 []complex128, p0, p1, p2, p3 complex128) {
	n, even := len(h), len(h)&^1
	v0, v1, v2, v3 = v0[:n], v1[:n], v2[:n], v3[:n]
	if even > 0 {
		rotate4SSE2(h[:even], v0, v1, v2, v3, p0, p1, p2, p3)
	}
	rotate4Go(h[even:], v0[even:], v1[even:], v2[even:], v3[even:], p0, p1, p2, p3)
}

// rotate4SSE2 is rotate4's body for the first len(h) &^ 1 subcarriers
// (rotate_amd64.s). Per lane it computes a product's real part as
// vr·pr + vi·(−pi) and its imaginary part as vi·pr + vr·pi, which equal
// Go's vr·pr − vi·pi and vr·pi + vi·pr bit for bit (DESIGN.md §15), and
// adds the four products to h[k] left to right. Each v must be at least
// as long as h.
//
//go:noescape
func rotate4SSE2(h, v0, v1, v2, v3 []complex128, p0, p1, p2, p3 complex128)
