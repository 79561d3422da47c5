package channel

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/element"
	"press/internal/fpexact"
)

// sameBits reports whether x and y agree in math.Float64bits, with a NaN
// matching any NaN: which operand's payload a NaN sum carries depends on
// the operand order the compiler picks for the add, which is not part of
// any result this package promises.
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// addRotatedRef is addRotated with the Doppler phasor from cmplx.Exp, as
// it was written before rfphys.Cis: an independent reference for it.
func addRotatedRef(h, v []complex128, dopplerHz, t float64) {
	if dopplerHz == 0 {
		for k := range h {
			h[k] += v[k]
		}
		return
	}
	ph := cmplx.Exp(complex(0, 2*math.Pi*dopplerHz*t))
	for k := range h {
		h[k] += v[k] * ph
	}
}

// TestFusedEnvironmentMatchesSequential checks Model.Environment's fused
// pass against the plain loop of addRotated it replaces, and that loop
// against addRotatedRef, in Float64bits (sameBits), on random moving
// models: 0–13 environment paths (every remainder mod 4), a zero-Doppler
// path at each position of a group, ±Inf and NaN terms (where a
// zero-Doppler path rotated by 1+0i would turn a 0 into a NaN), 1 to 114
// subcarriers, and t from 0 to 1e4 s.
func TestFusedEnvironmentMatchesSequential(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; the two passes may round differently")
	}
	rng := rand.New(rand.NewPCG(19, 4))
	randTerm := func() complex128 {
		scale := math.Ldexp(1, -rng.IntN(40))
		switch rng.IntN(64) {
		case 0:
			return complex(math.Inf(1-2*rng.IntN(2)), 0)
		case 1:
			return complex(0, math.NaN())
		}
		return complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
	}
	times := []float64{0, 1e4}
	for len(times) < 12 {
		times = append(times, rng.Float64()*math.Ldexp(1e4, -rng.IntN(20)))
	}
	for n := 0; n <= 13; n++ {
		// zero is the group position given zero Doppler; -1 for none.
		for zero := -1; zero < 4; zero++ {
			for trial := 0; trial < 20; trial++ {
				k := []int{52, 1, 3, 114}[trial%4]
				b := &Model{moving: true, envTerms: make([][]complex128, n), envDoppler: make([]float64, n)}
				for l := range b.envTerms {
					b.envTerms[l] = make([]complex128, k)
					for i := range b.envTerms[l] {
						b.envTerms[l][i] = randTerm()
					}
					b.envDoppler[l] = (rng.Float64() - 0.5) * 40
					if l%4 == zero && rng.IntN(2) == 0 || rng.IntN(16) == 0 {
						b.envDoppler[l] = 0
					}
				}
				for _, at := range times {
					got := make([]complex128, k)
					for i := range got {
						got[i] = complex(math.NaN(), 1) // environment must overwrite h
					}
					if vecs := b.Environment(got, at); vecs != n {
						t.Fatalf("environment summed %d vectors, want %d", vecs, n)
					}
					want, ref := make([]complex128, k), make([]complex128, k)
					for l, v := range b.envTerms {
						addRotated(want, v, b.envDoppler[l], at)
						addRotatedRef(ref, v, b.envDoppler[l], at)
					}
					for i := range want {
						if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
							t.Fatalf("%d paths (Doppler %v), t=%v, subcarrier %d: fused %v, sequential %v",
								n, b.envDoppler, at, i, got[i], want[i])
						}
						if !sameBits(real(ref[i]), real(want[i])) || !sameBits(imag(ref[i]), imag(want[i])) {
							t.Fatalf("%d paths (Doppler %v), t=%v, subcarrier %d: addRotated %v, cmplx.Exp reference %v",
								n, b.envDoppler, at, i, want[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestFoldedSumMatchesSequential checks that Model.Sum, which sends the
// selected element vectors through the same four-path passes as the
// environment, equals the environment followed by one addRotated per
// selected element in array order, in Float64bits (sameBits): random
// moving models with 0–9 environment paths and 0–9 elements, zero
// Doppler on some paths and elements, missing state vectors, stuck and
// dead elements, and ±Inf and NaN terms.
func TestFoldedSumMatchesSequential(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; the two passes may round differently")
	}
	rng := rand.New(rand.NewPCG(23, 2))
	randVec := func(k int) []complex128 {
		v := make([]complex128, k)
		for i := range v {
			v[i] = complex(randPart(rng), randPart(rng))
		}
		return v
	}
	randDoppler := func() float64 {
		if rng.IntN(5) == 0 {
			return 0
		}
		return (rng.Float64() - 0.5) * 40
	}
	for trial := 0; trial < 2000; trial++ {
		k := []int{52, 1, 3, 114}[trial%4]
		nEnv, nElem := rng.IntN(10), rng.IntN(10)
		m := &Model{moving: true, envTerms: make([][]complex128, nEnv), envDoppler: make([]float64, nEnv),
			elems: make([]elementTerms, nElem)}
		for l := range m.envTerms {
			m.envTerms[l], m.envDoppler[l] = randVec(k), randDoppler()
		}
		cfg := make(element.Config, nElem)
		faults := element.Faults{}
		for i := range m.elems {
			et := &m.elems[i]
			et.path.DopplerHz = randDoppler()
			et.states = make([][]complex128, 4)
			for si := range et.states {
				if rng.IntN(4) != 0 {
					et.states[si] = randVec(k)
				}
			}
			cfg[i] = rng.IntN(4)
			switch rng.IntN(8) {
			case 0:
				faults[i] = element.Fault{Kind: element.Dead}
			case 1:
				faults[i] = element.Fault{Kind: element.StuckAt, State: rng.IntN(4)}
			}
		}
		at := rng.Float64() * math.Ldexp(1e4, -rng.IntN(20))
		got := make([]complex128, k)
		vecs := m.Sum(got, cfg, faults, at)
		want := make([]complex128, k)
		wantVecs := nEnv
		for l, v := range m.envTerms {
			addRotated(want, v, m.envDoppler[l], at)
		}
		for i, et := range m.elems {
			si := cfg[i]
			if f, ok := faults[i]; ok {
				if f.Kind == element.Dead {
					continue
				}
				si = f.State
			}
			if v := et.states[si]; v != nil {
				addRotated(want, v, et.path.DopplerHz, at)
				wantVecs++
			}
		}
		if vecs != wantVecs {
			t.Fatalf("trial %d: Sum summed %d vectors, want %d", trial, vecs, wantVecs)
		}
		for i := range want {
			if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
				t.Fatalf("trial %d (%d paths, %d elements), t=%v, subcarrier %d: folded %v, sequential %v",
					trial, nEnv, nElem, at, i, got[i], want[i])
			}
		}
	}
}
