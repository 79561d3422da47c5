package ofdm

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/fpexact"
	"press/internal/rfphys"
)

// simulateRx synthesizes received training symbols Y = √P·H·X + noise.
func simulateRx(g Grid, h []complex128, tx []complex128, txPowerW, noiseW float64,
	nSym int, rng *rand.Rand) [][]complex128 {

	amp := complex(math.Sqrt(txPowerW), 0)
	sigma := math.Sqrt(noiseW / 2)
	rx := make([][]complex128, nSym)
	for s := range rx {
		rx[s] = make([]complex128, len(h))
		for k := range h {
			n := complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			rx[s][k] = amp*h[k]*tx[k] + n
		}
	}
	return rx
}

func flatChannel(n int, gain complex128) []complex128 {
	h := make([]complex128, n)
	for i := range h {
		h[i] = gain
	}
	return h
}

func TestEstimateNoiseless(t *testing.T) {
	g := WiFi20()
	tx := TrainingSequence(g)
	h := flatChannel(g.NumUsed(), complex(1e-3, 2e-3))
	rx := simulateRx(g, h, tx, 0.1, 0, 1, rand.New(rand.NewPCG(1, 1)))

	csi, err := Estimate(g, rx, tx, 0.1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for k := range h {
		if cmplx.Abs(csi.H[k]-h[k]) > 1e-12 {
			t.Fatalf("H[%d] = %v, want %v", k, csi.H[k], h[k])
		}
	}
}

func TestEstimateSNRMatchesTruth(t *testing.T) {
	g := WiFi20()
	tx := TrainingSequence(g)
	gain := 1e-4 // -80 dB channel
	txPower := 0.01
	noise := 1e-13
	trueSNR := rfphys.LinearToDB(gain * gain * txPower / noise) // ≈ 30 dB

	h := flatChannel(g.NumUsed(), complex(gain, 0))
	rng := rand.New(rand.NewPCG(2, 3))
	rx := simulateRx(g, h, tx, txPower, noise, 10, rng)
	csi, err := Estimate(g, rx, tx, txPower, noise)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range csi.SNRdB {
		if math.Abs(s-trueSNR) > 3 {
			t.Fatalf("SNR[%d] = %v dB, want ≈%v", k, s, trueSNR)
		}
	}
}

func TestEstimateMeasuresNoiseEmpirically(t *testing.T) {
	// Feed the estimator an optimistic nominal noise 20 dB below the
	// real one: with multiple training symbols it should notice.
	g := WiFi20()
	tx := TrainingSequence(g)
	h := flatChannel(g.NumUsed(), 1e-4)
	realNoise := 1e-12
	rng := rand.New(rand.NewPCG(4, 5))
	rx := simulateRx(g, h, tx, 0.01, realNoise, 20, rng)

	csi, err := Estimate(g, rx, tx, 0.01, realNoise/100)
	if err != nil {
		t.Fatal(err)
	}
	if csi.NoisePowerW < realNoise/3 || csi.NoisePowerW > realNoise*3 {
		t.Errorf("estimated noise %v, want within 5 dB of %v", csi.NoisePowerW, realNoise)
	}
}

func TestEstimateAveragingReducesError(t *testing.T) {
	g := WiFi20()
	tx := TrainingSequence(g)
	h := flatChannel(g.NumUsed(), 1e-4)
	txPower, noise := 0.01, 1e-11

	errFor := func(nSym int, seed uint64) float64 {
		rng := rand.New(rand.NewPCG(seed, seed))
		rx := simulateRx(g, h, tx, txPower, noise, nSym, rng)
		csi, err := Estimate(g, rx, tx, txPower, noise)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for k := range h {
			sum += cmplx.Abs(csi.H[k] - h[k])
		}
		return sum / float64(len(h))
	}
	// Average over several seeds to avoid a flaky comparison.
	var e1, e16 float64
	for seed := uint64(1); seed <= 8; seed++ {
		e1 += errFor(1, seed)
		e16 += errFor(16, seed)
	}
	if e16 >= e1 {
		t.Errorf("averaging 16 training symbols did not reduce error: %v vs %v", e16, e1)
	}
}

func TestEstimateInputValidation(t *testing.T) {
	g := WiFi20()
	tx := TrainingSequence(g)
	good := simulateRx(g, flatChannel(52, 1), tx, 1, 0, 1, rand.New(rand.NewPCG(1, 1)))

	if _, err := Estimate(g, nil, tx, 1, 1e-12); err == nil {
		t.Error("empty rx accepted")
	}
	if _, err := Estimate(g, good, tx[:10], 1, 1e-12); err == nil {
		t.Error("short training sequence accepted")
	}
	if _, err := Estimate(g, [][]complex128{good[0][:5]}, tx, 1, 1e-12); err == nil {
		t.Error("short rx symbol accepted")
	}
	if _, err := Estimate(g, good, tx, 0, 1e-12); err == nil {
		t.Error("zero tx power accepted")
	}
	if _, err := Estimate(g, good, tx, 1, 0); err == nil {
		t.Error("zero noise with single symbol accepted")
	}
}

func TestCSIGainAndMin(t *testing.T) {
	g := WiFi20()
	csi := &CSI{Grid: g, H: []complex128{0.1, 0.01}, SNRdB: []float64{40, 20}}
	gains := csi.GainDB()
	if math.Abs(gains[0]+20) > 1e-9 || math.Abs(gains[1]+40) > 1e-9 {
		t.Errorf("gains = %v", gains)
	}
	if csi.MinSNRdB() != 20 {
		t.Errorf("MinSNRdB = %v", csi.MinSNRdB())
	}
	empty := &CSI{}
	if !math.IsInf(empty.MinSNRdB(), -1) {
		t.Error("empty CSI MinSNRdB should be -Inf")
	}
}

func TestMCSSelection(t *testing.T) {
	if m, ok := SelectMCS(30); !ok || m.Name != "64-QAM 3/4" {
		t.Errorf("30 dB → %v", m.Name)
	}
	if m, ok := SelectMCS(11); !ok || m.Name != "QPSK 1/2" {
		t.Errorf("11 dB → %v", m.Name)
	}
	if _, ok := SelectMCS(2); ok {
		t.Error("2 dB should sustain no rate")
	}
}

func TestEffectiveSNRPunishesNulls(t *testing.T) {
	flat := make([]float64, 52)
	nulled := make([]float64, 52)
	for i := range flat {
		flat[i], nulled[i] = 30, 30
	}
	for i := 0; i < 6; i++ {
		nulled[10+i] = 5 // a 25 dB null across 6 subcarriers
	}
	if e := EffectiveSNRdB(flat); math.Abs(e-30) > 1e-9 {
		t.Errorf("flat effective SNR = %v", e)
	}
	if e := EffectiveSNRdB(nulled); e > 20 {
		t.Errorf("nulled effective SNR = %v, should drop well below 30", e)
	}
	if !math.IsInf(EffectiveSNRdB(nil), -1) {
		t.Error("empty SNR should be -Inf")
	}
}

func TestThroughputImprovesWhenNullRemoved(t *testing.T) {
	// The paper's §1 argument: flattening the channel lets OFDM "offer a
	// greater bit rate, and hence throughput, to higher layers".
	g := WiFi20()
	flat := make([]float64, 52)
	nulled := make([]float64, 52)
	for i := range flat {
		flat[i], nulled[i] = 28, 28
	}
	for i := 0; i < 8; i++ {
		nulled[20+i] = 4
	}
	tFlat := ThroughputMbps(g, flat)
	tNull := ThroughputMbps(g, nulled)
	if tFlat <= tNull {
		t.Errorf("flat channel throughput %v ≤ nulled %v", tFlat, tNull)
	}
	if tFlat == 0 {
		t.Error("flat 28 dB channel should sustain a rate")
	}
}

func TestShannonExceedsMCS(t *testing.T) {
	g := WiFi20()
	snr := make([]float64, 52)
	for i := range snr {
		snr[i] = 25
	}
	if ShannonMbps(g, snr) <= ThroughputMbps(g, snr) {
		t.Error("Shannon bound should exceed the MCS ladder")
	}
}

// estimateRef is Estimate as it was before its divisions were specialised
// for real divisors: every quotient goes through Go's complex division.
// Estimate must match it bit for bit.
func estimateRef(g Grid, rx [][]complex128, tx []complex128, txPowerW, noiseW float64) (*CSI, error) {
	if len(rx) == 0 {
		return nil, fmt.Errorf("ofdm: no training symbols received")
	}
	n := g.NumUsed()
	if len(tx) != n {
		return nil, fmt.Errorf("ofdm: training sequence has %d entries for %d subcarriers", len(tx), n)
	}
	for s := range rx {
		if len(rx[s]) != n {
			return nil, fmt.Errorf("ofdm: training symbol %d has %d entries for %d subcarriers", s, len(rx[s]), n)
		}
	}
	if txPowerW <= 0 {
		return nil, fmt.Errorf("ofdm: non-positive per-subcarrier transmit power")
	}

	csi := &CSI{Grid: g, H: make([]complex128, n), SNRdB: make([]float64, n), NoisePowerW: noiseW}
	amp := complex(math.Sqrt(txPowerW), 0)

	var residual float64
	var residualN int
	q := make([]complex128, len(rx))
	for k := 0; k < n; k++ {
		var sum complex128
		for s := range rx {
			q[s] = rx[s][k] / (amp * tx[k])
			sum += q[s]
		}
		h := sum / complex(float64(len(rx)), 0)
		csi.H[k] = h
		for s := range q {
			dev := q[s] - h
			residual += real(dev)*real(dev) + imag(dev)*imag(dev)
			residualN++
		}
	}

	effNoise := noiseW
	if len(rx) >= 2 && residualN > 0 {
		measured := residual / float64(residualN) * txPowerW *
			float64(len(rx)) / float64(len(rx)-1)
		if measured > effNoise {
			effNoise = measured
		}
	}
	if effNoise <= 0 {
		return nil, fmt.Errorf("ofdm: non-positive noise power")
	}
	csi.NoisePowerW = effNoise
	for k := 0; k < n; k++ {
		mag2 := real(csi.H[k])*real(csi.H[k]) + imag(csi.H[k])*imag(csi.H[k])
		csi.SNRdB[k] = rfphys.LinearToDB(mag2 * txPowerW / effNoise)
	}
	return csi, nil
}

// specialSample returns one of ±0, ±Inf and NaN in each part of a
// received sample, mixed with an ordinary value.
func specialSample(rng *rand.Rand) complex128 {
	parts := [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), rng.NormFloat64()}
	return complex(parts[rng.IntN(len(parts))], parts[rng.IntN(len(parts))])
}

// randomTraining returns BPSK training or, when arbitrary is set, a
// sequence mixing complex, real, signed-zero-imaginary and zero entries.
func randomTraining(rng *rand.Rand, g Grid, arbitrary bool) []complex128 {
	tx := TrainingSequence(g)
	if !arbitrary {
		return tx
	}
	for k := range tx {
		switch rng.IntN(5) {
		case 0:
			tx[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		case 1:
			tx[k] = complex(rng.NormFloat64()*1e3, 0)
		case 2:
			tx[k] = complex(rng.NormFloat64(), math.Copysign(0, -1))
		case 3:
			tx[k] = 0
		}
	}
	return tx
}

// sameBits reports whether a and b are the same float64 bit patterns.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSameCSI fails unless got and want (and their errors) agree bit for
// bit.
func checkSameCSI(t *testing.T, what string, got, want *CSI, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !sameBits(got.NoisePowerW, want.NoisePowerW) {
		t.Fatalf("%s: NoisePowerW %v, reference %v", what, got.NoisePowerW, want.NoisePowerW)
	}
	for k := range want.H {
		if !sameBits(real(got.H[k]), real(want.H[k])) || !sameBits(imag(got.H[k]), imag(want.H[k])) {
			t.Fatalf("%s: H[%d] = %v, reference %v", what, k, got.H[k], want.H[k])
		}
		if !sameBits(got.SNRdB[k], want.SNRdB[k]) {
			t.Fatalf("%s: SNRdB[%d] = %v, reference %v", what, k, got.SNRdB[k], want.SNRdB[k])
		}
	}
}

// TestEstimateMatchesReference: Estimate equals estimateRef bit for bit
// on random soundings over both grids, BPSK and arbitrary training, 1 to
// 17 training symbols (17 takes the heap scratch) and samples that are
// exactly ±0, ±Inf or NaN.
func TestEstimateMatchesReference(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; Estimate and Go's complex division may round differently")
	}
	rng := rand.New(rand.NewPCG(17, 18))
	for _, g := range []Grid{WiFi20(), USRP102()} {
		for _, nSym := range []int{1, 4, 16, 17} {
			for _, arbitrary := range []bool{false, true} {
				for _, special := range []float64{0, 0.05, 0.5} {
					for trial := 0; trial < 20; trial++ {
						tx := randomTraining(rng, g, arbitrary)
						h := make([]complex128, g.NumUsed())
						for k := range h {
							h[k] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-4
						}
						txPowerW := math.Pow(10, -4+3*rng.Float64())
						noiseW := math.Pow(10, -14+4*rng.Float64())
						rx := simulateRx(g, h, tx, txPowerW, noiseW, nSym, rng)
						for s := range rx {
							for k := range rx[s] {
								if rng.Float64() < special {
									rx[s][k] = specialSample(rng)
								}
							}
						}
						got, gotErr := Estimate(g, rx, tx, txPowerW, noiseW)
						want, wantErr := estimateRef(g, rx, tx, txPowerW, noiseW)
						what := fmt.Sprintf("%d subcarriers, nSym %d, arbitrary %v, special %v, trial %d",
							g.NumUsed(), nSym, arbitrary, special, trial)
						checkSameCSI(t, what, got, want, gotErr, wantErr)
					}
				}
			}
		}
	}
}

// TestDivMatchesComplexDivision: div(a, m) is a/m bit for bit for every
// pairing of special and ordinary parts, real divisors of both zero
// signs among them.
func TestDivMatchesComplexDivision(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; div and Go's complex division may round differently")
	}
	negZero := math.Copysign(0, -1)
	parts := []float64{0, negZero, 1, -2.5, 1e-310, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, ar := range parts {
		for _, ai := range parts {
			for _, mr := range parts {
				for _, mi := range parts {
					a, m := complex(ar, ai), complex(mr, mi)
					got, want := div(a, m), a/m
					if !sameBits(real(got), real(want)) || !sameBits(imag(got), imag(want)) {
						t.Fatalf("div(%v, %v) = %v, a/m = %v", a, m, got, want)
					}
				}
			}
		}
	}
}

// TestEstimateRejectsNonFinitePowers: a NaN or infinite transmit or noise
// power is an error, never NaN or infinite CSI.
func TestEstimateRejectsNonFinitePowers(t *testing.T) {
	g := WiFi20()
	tx := TrainingSequence(g)
	rx := simulateRx(g, flatChannel(g.NumUsed(), 1e-4), tx, 0.01, 1e-12, 4, rand.New(rand.NewPCG(5, 6)))
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name            string
		txPowerW, noise float64
	}{
		{"NaN transmit power", nan, 1e-12},
		{"+Inf transmit power", inf, 1e-12},
		{"-Inf transmit power", -inf, 1e-12},
		{"NaN noise", 0.01, nan},
		{"+Inf noise", 0.01, inf},
		{"-Inf noise", 0.01, -inf},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if csi, err := Estimate(g, rx, tx, tc.txPowerW, tc.noise); err == nil {
				t.Fatalf("accepted: min SNR %v dB", csi.MinSNRdB())
			}
		})
	}
	if _, err := Estimate(g, rx, tx, 0.01, 1e-12); err != nil {
		t.Fatalf("finite powers rejected: %v", err)
	}
}

// TestEstimateAllocs: a sounding of up to 16 training symbols allocates
// only the returned CSI (struct, H, SNRdB).
func TestEstimateAllocs(t *testing.T) {
	g := WiFi20()
	tx := TrainingSequence(g)
	rx := simulateRx(g, flatChannel(g.NumUsed(), 1e-4), tx, 0.01, 1e-12, 16, rand.New(rand.NewPCG(7, 8)))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Estimate(g, rx, tx, 0.01, 1e-12); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("Estimate allocates %v times per call, want 3", allocs)
	}
}

// BenchmarkEstimate times one LS estimate of a WiFi20 sounding (52
// subcarriers) from 4 training symbols. It allocates only the returned
// CSI: 3 allocs/op.
func BenchmarkEstimate(b *testing.B) {
	g := WiFi20()
	tx := TrainingSequence(g)
	rng := rand.New(rand.NewPCG(9, 10))
	h := make([]complex128, g.NumUsed())
	for k := range h {
		h[k] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-4
	}
	rx := simulateRx(g, h, tx, 0.01, 1e-12, 4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(g, rx, tx, 0.01, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}
