package rfphys

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/fpexact"
)

// sameCis reports whether Cis(theta) equals cmplx.Exp(complex(0, theta))
// in Float64bits, and returns both.
func sameCis(theta float64) (got, want complex128, same bool) {
	got, want = Cis(theta), cmplx.Exp(complex(0, theta))
	same = math.Float64bits(real(got)) == math.Float64bits(real(want)) &&
		math.Float64bits(imag(got)) == math.Float64bits(imag(want))
	return got, want, same
}

// TestCisMatchesCmplxExp checks Cis against cmplx.Exp(complex(0, θ)) bit
// for bit: on signed zeros, NaN payloads, infinities, the extremes,
// subnormals, arguments either side of Sincos's 2^29 reduction
// threshold, and 10M random bit patterns.
func TestCisMatchesCmplxExp(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; bit-identity is asserted only where they round separately")
	}
	var thetas []float64
	for _, b := range []uint64{
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7ff8000000000000, 0xfff8000000000000, // quiet NaNs
		0x7ff8000000000001, 0x7ff0000000000001, // NaN payloads, quiet and signalling
		0x7fffffffffffffff, 0xfff0000000000001,
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x0000000000000001, 0x8000000000000001, // smallest subnormals
		0x000fffffffffffff, 0x800fffffffffffff, // largest subnormals
		0x0010000000000000, 0x8010000000000000, // smallest normals
	} {
		thetas = append(thetas, math.Float64frombits(b))
	}
	thetas = append(thetas, math.MaxFloat64, -math.MaxFloat64, math.Pi, -math.Pi, math.Pi/2, 2*math.Pi, 1e300, -1e-300)
	for _, x := range []float64{1 << 29, math.Pi * (1 << 29), 1 << 52, 1 << 63} {
		for _, y := range []float64{x, -x} {
			v := y
			for i := 0; i < 8; i++ { // a few ulps below and above
				v = math.Nextafter(v, 0)
			}
			for i := 0; i < 17; i++ {
				thetas = append(thetas, v)
				v = math.Nextafter(v, math.Inf(int(math.Copysign(1, y))))
			}
		}
	}
	for _, theta := range thetas {
		if got, want, ok := sameCis(theta); !ok {
			t.Errorf("Cis(%v) [%#x] = %v, cmplx.Exp gives %v", theta, math.Float64bits(theta), got, want)
		}
	}
	rng := rand.New(rand.NewPCG(19, 29))
	for i := 0; i < 10_000_000; i++ {
		theta := math.Float64frombits(rng.Uint64())
		if i%2 == 1 {
			// Half the draws are phases of the size the simulator uses.
			theta = (rng.Float64() - 0.5) * math.Ldexp(1, rng.IntN(64)-16)
		}
		if got, want, ok := sameCis(theta); !ok {
			t.Fatalf("Cis(%v) [%#x] = %v, cmplx.Exp gives %v", theta, math.Float64bits(theta), got, want)
		}
	}
}

// FuzzCis checks Cis against cmplx.Exp(complex(0, θ)) bit for bit on
// arbitrary float64 bit patterns.
func FuzzCis(f *testing.F) {
	if fpexact.Contracts() {
		f.Skip("this target fuses multiply-adds; bit-identity is asserted only where they round separately")
	}
	for _, b := range []uint64{0, 1 << 63, 0x7ff8000000000001, 0x7ff0000000000000, 0x41c0000000000000, 0x3ff921fb54442d18} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		theta := math.Float64frombits(bits)
		if got, want, ok := sameCis(theta); !ok {
			t.Fatalf("Cis(%v) [%#x] = %v, cmplx.Exp gives %v", theta, bits, got, want)
		}
	})
}
