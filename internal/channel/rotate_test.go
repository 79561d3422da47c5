package channel

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"press/internal/fpexact"
)

// specialParts are the float64 parts the rotate4 tests draw most
// often: signed zeros, subnormals, values near overflow, infinities and
// NaN, where a kernel that reorders or regroups its operations is most
// likely to round, overflow or sign a result differently.
var specialParts = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1.8p-1060,
	math.MaxFloat64, -math.MaxFloat64, 0x1.fp1022, -0x1p1023,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 0.5,
}

// randPart returns a special part or a random one spanning many scales.
func randPart(rng *rand.Rand) float64 {
	if rng.IntN(3) == 0 {
		return specialParts[rng.IntN(len(specialParts))]
	}
	return math.Ldexp(rng.NormFloat64(), rng.IntN(120)-60)
}

// checkRotate4 runs rotate4 and rotate4Go on copies of h and compares
// every part in Float64bits (sameBits). h is checked inside a longer
// buffer, so a write past len(h) shows as well.
func checkRotate4(t *testing.T, h []complex128, v [4][]complex128, p [4]complex128) {
	t.Helper()
	const guard = 3
	got := make([]complex128, len(h)+guard)
	want := make([]complex128, len(h)+guard)
	copy(got, h)
	copy(want, h)
	for i := len(h); i < len(got); i++ {
		got[i], want[i] = complex(float64(i), -1), complex(float64(i), -1)
	}
	rotate4(got[:len(h)], v[0], v[1], v[2], v[3], p[0], p[1], p[2], p[3])
	rotate4Go(want[:len(h)], v[0], v[1], v[2], v[3], p[0], p[1], p[2], p[3])
	for k := range got {
		if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
			t.Fatalf("len %d, subcarrier %d: rotate4 %v, rotate4Go %v (h %v, v %v %v %v %v, phasors %v)",
				len(h), k, got[k], want[k], part(h, k),
				part(v[0], k), part(v[1], k), part(v[2], k), part(v[3], k), p)
		}
	}
}

// part returns v[k], or 0 past v's end, for failure messages.
func part(v []complex128, k int) complex128 {
	if k < len(v) {
		return v[k]
	}
	return 0
}

// TestRotate4MatchesGo checks the architecture's rotate4 body against
// the portable rotate4Go in Float64bits, with NaN matching any NaN, on
// every length from 0 to 67 (odd and even, so the tail subcarrier is
// covered) with vectors longer than h: random parts over 120 binary
// orders of magnitude mixed with ±0, subnormals, values near overflow,
// ±Inf and NaN, under unit phasors and phasors with special parts.
func TestRotate4MatchesGo(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; the Go reference may round differently")
	}
	rng := rand.New(rand.NewPCG(23, 1))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 40; trial++ {
			h := make([]complex128, n)
			for k := range h {
				h[k] = complex(randPart(rng), randPart(rng))
			}
			var v [4][]complex128
			for j := range v {
				v[j] = make([]complex128, n+rng.IntN(3))
				for k := range v[j] {
					v[j][k] = complex(randPart(rng), randPart(rng))
				}
			}
			var p [4]complex128
			for j := range p {
				if trial%2 == 0 {
					s, c := math.Sincos(rng.Float64() * 2 * math.Pi)
					p[j] = complex(c, s)
				} else {
					p[j] = complex(randPart(rng), randPart(rng))
				}
			}
			checkRotate4(t, h, v, p)
		}
	}
}

// FuzzRotate4 compares rotate4 with rotate4Go on arbitrary bits: the
// input is read as little-endian float64 parts, the four phasors first,
// then h and the four vectors one subcarrier at a time.
func FuzzRotate4(f *testing.F) {
	seed := make([]byte, 8*(8+10*3))
	for i := 0; i+8 <= len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(specialParts[(i/8)%len(specialParts)]))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if fpexact.Contracts() {
			t.Skip("this target fuses multiply-adds; the Go reference may round differently")
		}
		parts := make([]float64, len(data)/8)
		for i := range parts {
			parts[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(parts) < 8 {
			return
		}
		var p [4]complex128
		for j := range p {
			p[j] = complex(parts[2*j], parts[2*j+1])
		}
		parts = parts[8:]
		n := len(parts) / 10
		h := make([]complex128, n)
		var v [4][]complex128
		for j := range v {
			v[j] = make([]complex128, n)
		}
		for k := 0; k < n; k++ {
			q := parts[10*k:]
			h[k] = complex(q[0], q[1])
			for j := range v {
				v[j][k] = complex(q[2+2*j], q[3+2*j])
			}
		}
		checkRotate4(t, h, v, p)
	})
}
