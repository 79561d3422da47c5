package channel

import (
	"math"

	"press/internal/rfphys"
)

// rotator adds a sounding's vectors into h in the order they are queued.
// Four consecutive vectors with a Doppler shift are added in one
// addRotated4 pass, and any left over when a run ends short of four go
// through addRotated one at a time. A vector with zero Doppler ends a
// run and is added unrotated. Every subcarrier gets the same additions
// in the same order either way, so the sum does not depend on how the
// vectors were grouped.
type rotator struct {
	h   []complex128
	t   float64
	v   [4][]complex128
	dop [4]float64
	n   int // vectors queued in v and dop
}

// add queues v with its Doppler shift, and adds it (and whatever is
// queued before it) once a pass can be made.
func (r *rotator) add(v []complex128, dopplerHz float64) {
	if dopplerHz == 0 {
		if r.n > 0 {
			r.flush()
		}
		addPlain(r.h, v)
		return
	}
	r.v[r.n], r.dop[r.n] = v, dopplerHz
	r.n++
	if r.n == len(r.v) {
		addRotated4(r.h, &r.v, &r.dop, r.t)
		r.n = 0
	}
}

// flush adds the queued vectors one at a time.
func (r *rotator) flush() {
	for i := range r.n {
		addRotated(r.h, r.v[i], r.dop[i], r.t)
	}
	r.n = 0
}

// addRotated adds v, rotated by the Doppler phasor at t, into h. A zero
// Doppler shift adds v unrotated: multiplying by 1+0i is not exact,
// since (∞+0i)·(1+0i) has a NaN imaginary part and -0 can change sign.
func addRotated(h, v []complex128, dopplerHz, t float64) {
	if dopplerHz == 0 {
		addPlain(h, v)
		return
	}
	ph := rfphys.Cis(2 * math.Pi * dopplerHz * t)
	for k := range h {
		h[k] += v[k] * ph
	}
}

// addPlain adds v into h.
func addPlain(h, v []complex128) {
	for k := range h {
		h[k] += v[k]
	}
}

// addRotated4 adds v[0..3], each rotated by its nonzero Doppler shift's
// phasor at t, into h in one pass (rotate4). Every subcarrier gets the
// four additions of four addRotated calls, in the same order, so the
// result is bit-identical to them while h[k] is loaded and stored once.
func addRotated4(h []complex128, v *[4][]complex128, dopplerHz *[4]float64, t float64) {
	rotate4(h, v[0], v[1], v[2], v[3],
		rfphys.Cis(2*math.Pi*dopplerHz[0]*t),
		rfphys.Cis(2*math.Pi*dopplerHz[1]*t),
		rfphys.Cis(2*math.Pi*dopplerHz[2]*t),
		rfphys.Cis(2*math.Pi*dopplerHz[3]*t))
}

// rotate4Go computes h[k] = h[k] + v0[k]·p0 + v1[k]·p1 + v2[k]·p2 +
// v3[k]·p3 for every k < len(h), left to right. It is rotate4's body
// where there is no assembly one, and the reference the amd64 kernel is
// tested against. Each v must be at least as long as h.
func rotate4Go(h, v0, v1, v2, v3 []complex128, p0, p1, p2, p3 complex128) {
	v0, v1, v2, v3 = v0[:len(h)], v1[:len(h)], v2[:len(h)], v3[:len(h)]
	for k := range h {
		h[k] = h[k] + v0[k]*p0 + v1[k]*p1 + v2[k]*p2 + v3[k]*p3
	}
}
