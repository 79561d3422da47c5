package mimo

import (
	"math"
	"math/rand/v2"
	"testing"

	"press/internal/cmat"
	"press/internal/rfphys"
)

func TestFromResponses(t *testing.T) {
	// 2×2, 3 subcarriers.
	resp := [][][]complex128{
		{{1, 2, 3}, {4, 5, 6}},
		{{7, 8, 9}, {10, 11, 12}},
	}
	ch, err := FromResponses(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumSubcarriers() != 3 {
		t.Fatalf("subcarriers = %d", ch.NumSubcarriers())
	}
	// H[1] should be [[2,5],[8,11]].
	m := ch.Matrices[1]
	if m.At(0, 0) != 2 || m.At(0, 1) != 5 || m.At(1, 0) != 8 || m.At(1, 1) != 11 {
		t.Errorf("matrix 1 wrong:\n%v", m)
	}
}

func TestFromResponsesValidation(t *testing.T) {
	if _, err := FromResponses(nil); err == nil {
		t.Error("empty set accepted")
	}
	ragged := [][][]complex128{
		{{1, 2}, {3, 4}},
		{{5, 6}},
	}
	if _, err := FromResponses(ragged); err == nil {
		t.Error("ragged tx count accepted")
	}
	raggedSC := [][][]complex128{
		{{1, 2}, {3}},
	}
	if _, err := FromResponses(raggedSC); err == nil {
		t.Error("ragged subcarrier count accepted")
	}
}

func TestCondNumberDB(t *testing.T) {
	// Identity: perfectly conditioned, 0 dB.
	if c := CondNumberDB(cmat.Identity(2)); math.Abs(c) > 1e-9 {
		t.Errorf("Cond(I) = %v dB", c)
	}
	// diag(10, 1): condition number 10 → 20 dB.
	d := cmat.FromRows([][]complex128{{10, 0}, {0, 1}})
	if c := CondNumberDB(d); math.Abs(c-20) > 1e-9 {
		t.Errorf("Cond(diag(10,1)) = %v dB, want 20", c)
	}
	// Rank-1: +Inf.
	r1 := cmat.FromRows([][]complex128{{1, 1}, {1, 1}})
	if c := CondNumberDB(r1); !math.IsInf(c, 1) {
		t.Errorf("rank-1 cond = %v", c)
	}
	// Larger matrix exercises the Jacobi path.
	d3 := cmat.FromRows([][]complex128{{4, 0, 0}, {0, 2, 0}, {0, 0, 1}})
	if c := CondNumberDB(d3); math.Abs(c-20*math.Log10(4)) > 1e-9 {
		t.Errorf("3x3 cond = %v dB", c)
	}
}

func TestCondProfile(t *testing.T) {
	resp := [][][]complex128{
		{{1, 1}, {0, 1}},
		{{0, 1}, {1, 2}},
	}
	ch, err := FromResponses(resp)
	if err != nil {
		t.Fatal(err)
	}
	prof := ch.CondProfileDB()
	if len(prof) != 2 {
		t.Fatalf("profile len = %d", len(prof))
	}
	// Subcarrier 0: identity → 0 dB. Subcarrier 1: [[1,1],[1,2]].
	if math.Abs(prof[0]) > 1e-9 {
		t.Errorf("profile[0] = %v", prof[0])
	}
	if prof[1] <= 0 {
		t.Errorf("profile[1] = %v, want > 0", prof[1])
	}
}

func TestCapacityKnownValues(t *testing.T) {
	// Identity 2×2 at SNR 3 (linear): 2·log2(1 + 3/2).
	want := 2 * math.Log2(1+1.5)
	if c := CapacityBpsHz(cmat.Identity(2), 3); math.Abs(c-want) > 1e-12 {
		t.Errorf("capacity = %v, want %v", c, want)
	}
	// Capacity is monotone in SNR.
	h := cmat.FromRows([][]complex128{{1, 0.5}, {0.2, 0.9}})
	if CapacityBpsHz(h, 10) <= CapacityBpsHz(h, 1) {
		t.Error("capacity not monotone in SNR")
	}
	// Zero SNR → zero capacity.
	if c := CapacityBpsHz(h, 0); c != 0 {
		t.Errorf("capacity at 0 SNR = %v", c)
	}
}

func TestWellConditionedBeatsIllConditioned(t *testing.T) {
	// Equal Frobenius norm, very different conditioning: the
	// well-conditioned channel must carry more capacity at high SNR and
	// a much higher ZF sum rate — the paper's Large MIMO argument.
	good := cmat.Identity(2)
	bad := cmat.FromRows([][]complex128{{1.4, 1.4}, {0.14, 0.1}})
	// Normalize Frobenius norms.
	scale := complex(good.FrobeniusNorm()/bad.FrobeniusNorm(), 0)
	bad = bad.Scale(scale)

	snr := 1000.0
	if CapacityBpsHz(good, snr) <= CapacityBpsHz(bad, snr) {
		t.Error("well-conditioned channel should have higher capacity at high SNR")
	}
	if ZFSumRateBpsHz(good, snr) <= ZFSumRateBpsHz(bad, snr) {
		t.Error("ZF sum rate should collapse on the ill-conditioned channel")
	}
}

func TestZFBelowCapacity(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		h := cmat.New(2, 2)
		for i := range h.Data {
			h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		snr := 100.0
		zf, cap := ZFSumRateBpsHz(h, snr), CapacityBpsHz(h, snr)
		if zf > cap+1e-9 {
			t.Fatalf("ZF rate %v exceeds capacity %v (trial %d)", zf, cap, trial)
		}
	}
}

func TestMeanCapacity(t *testing.T) {
	resp := [][][]complex128{
		{{1, 1}, {0, 0}},
		{{0, 0}, {1, 1}},
	}
	ch, err := FromResponses(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := CapacityBpsHz(cmat.Identity(2), 10)
	if got := ch.MeanCapacityBpsHz(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean capacity = %v, want %v", got, want)
	}
	empty := &Channel{}
	if empty.MeanCapacityBpsHz(10) != 0 {
		t.Error("empty channel capacity should be 0")
	}
}

func TestAverageSnapshots(t *testing.T) {
	mk := func(v complex128) *Channel {
		m := cmat.New(2, 2)
		for i := range m.Data {
			m.Data[i] = v
		}
		return &Channel{Matrices: []*cmat.Matrix{m}}
	}
	avg, err := Average([]*Channel{mk(1), mk(3)})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Matrices[0].At(0, 0) != 2 {
		t.Errorf("average = %v", avg.Matrices[0].At(0, 0))
	}
	// Averaging suppresses zero-mean noise: the mean of many noisy
	// snapshots of H approaches H (Figure 8's 50-measurement averaging).
	rng := rand.New(rand.NewPCG(7, 8))
	truth := complex(1, -2)
	var snaps []*Channel
	for s := 0; s < 200; s++ {
		snaps = append(snaps, mk(truth+complex(rng.NormFloat64(), rng.NormFloat64())))
	}
	avg, err = Average(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if d := avg.Matrices[0].At(0, 0) - truth; math.Abs(real(d))+math.Abs(imag(d)) > 0.5 {
		t.Errorf("noisy average off by %v", d)
	}
	if _, err := Average(nil); err == nil {
		t.Error("empty snapshot list accepted")
	}
	if _, err := Average([]*Channel{mk(1), {Matrices: []*cmat.Matrix{cmat.New(3, 3)}}}); err == nil {
		t.Error("mismatched dimensions accepted")
	}
}

func TestWaterfillingDominatesEqualPower(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 2+rng.IntN(3), 2+rng.IntN(3)
		h := cmat.New(rows, cols)
		for i := range h.Data {
			h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, snr := range []float64{0.1, 1, 10, 1000} {
			wf := WaterfillingCapacityBpsHz(h, snr)
			eq := CapacityBpsHz(h, snr)
			if wf < eq-1e-9 {
				t.Fatalf("trial %d snr %v: waterfilling %v below equal power %v", trial, snr, wf, eq)
			}
		}
	}
}

func TestWaterfillingHighSNRConvergesToEqualPower(t *testing.T) {
	// At high SNR every eigenchannel is strong and waterfilling floods
	// them all nearly equally: the two capacities converge (per-channel
	// difference vanishes as log(1+x) → log(x)).
	h := cmat.FromRows([][]complex128{{1.2, 0.4}, {0.3, 0.9}})
	snr := 1e6
	wf := WaterfillingCapacityBpsHz(h, snr)
	eq := CapacityBpsHz(h, snr)
	if (wf-eq)/eq > 0.01 {
		t.Errorf("high-SNR gap %.4f vs %.4f too large", wf, eq)
	}
}

func TestWaterfillingLowSNRBeamforms(t *testing.T) {
	// At low SNR waterfilling pours everything into the strongest
	// eigenchannel: capacity ≈ log2(1 + P·σ₁²), clearly above the equal
	// split for an unbalanced channel.
	h := cmat.FromRows([][]complex128{{3, 0}, {0, 0.1}})
	snr := 0.5
	wf := WaterfillingCapacityBpsHz(h, snr)
	want := math.Log2(1 + snr*9)
	if math.Abs(wf-want) > 1e-9 {
		t.Errorf("low-SNR waterfilling %v, want single-beam %v", wf, want)
	}
	if eq := CapacityBpsHz(h, snr); wf <= eq {
		t.Errorf("waterfilling %v not above equal power %v on unbalanced channel", wf, eq)
	}
}

func TestWaterfillingEdgeCases(t *testing.T) {
	h := cmat.Identity(2)
	if c := WaterfillingCapacityBpsHz(h, 0); c != 0 {
		t.Errorf("zero power capacity = %v", c)
	}
	zero := cmat.New(2, 2)
	if c := WaterfillingCapacityBpsHz(zero, 10); c != 0 {
		t.Errorf("zero channel capacity = %v", c)
	}
	// Identity at total SNR 2: each channel gets 1 → 2·log2(2) = 2.
	if c := WaterfillingCapacityBpsHz(h, 2); math.Abs(c-2) > 1e-9 {
		t.Errorf("identity capacity = %v, want 2", c)
	}
}

func TestFromResponsesSharedBacking(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	resp := randResponses(rng, 3, 2, 4)
	ch, err := FromResponses(resp)
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range ch.Matrices {
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				if m.At(i, j) != resp[i][j][k] {
					t.Fatalf("H[%d](%d,%d) = %v, want %v", k, i, j, m.At(i, j), resp[i][j][k])
				}
			}
		}
	}
	// Growing one matrix's data must not write into the next one's.
	next := ch.Matrices[1].At(0, 0)
	_ = append(ch.Matrices[0].Data, 99)
	if ch.Matrices[1].At(0, 0) != next {
		t.Fatal("matrix data slices overlap")
	}
}

func TestCondNumberDBMatchesSingularValues(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, shape := range [][2]int{{2, 2}, {3, 3}, {4, 4}, {2, 4}, {4, 2}, {6, 6}} {
		for trial := 0; trial < 20; trial++ {
			m := cmat.New(shape[0], shape[1])
			for i := range m.Data {
				m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			s := cmat.SingularValues(m)
			if got, want := CondNumberDB(m), rfphys.AmplitudeToDB(s[0]/s[len(s)-1]); got != want {
				t.Fatalf("%v: CondNumberDB = %v, from SingularValues %v", shape, got, want)
			}
		}
	}
	h := cmat.Identity(4)
	if n := testing.AllocsPerRun(100, func() { CondNumberDB(h) }); n != 0 {
		t.Errorf("CondNumberDB(4x4) allocates %v times", n)
	}
}

// randResponses returns nr×nt×nsc random complex responses.
func randResponses(rng *rand.Rand, nr, nt, nsc int) [][][]complex128 {
	resp := make([][][]complex128, nr)
	for i := range resp {
		resp[i] = make([][]complex128, nt)
		for j := range resp[i] {
			resp[i][j] = make([]complex128, nsc)
			for k := range resp[i][j] {
				resp[i][j][k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
	}
	return resp
}

// BenchmarkCondProfile4x4 times Figure 8's per-configuration work on a
// 4×4 WiFi20 channel: CondNumberDB on each of the 52 subcarrier
// matrices. It allocates nothing.
var sinkCond float64

func BenchmarkCondProfile4x4(b *testing.B) {
	ch, err := FromResponses(randResponses(rand.New(rand.NewPCG(9, 10)), 4, 4, 52))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ch.Matrices {
			sinkCond = CondNumberDB(m)
		}
	}
}
