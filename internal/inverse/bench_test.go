package inverse

import (
	"math/rand/v2"
	"testing"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// BenchmarkSolve times one inverse solve on a 6-element parabolic SP4T
// WiFi20 problem in a 12×9×3 m room with 10 scatterers, laid out like
// the experiments' default SISO scenario: one channel-model build (one
// trace), the truncated pseudo-inverse, and an exhaustive refinement
// over all 4,096 configurations of the narrowband table.
func BenchmarkSolve(b *testing.B) {
	p := benchProblem(b, 6)
	baseline, err := p.Baseline()
	if err != nil {
		b.Fatal(err)
	}
	target := TargetFlat(baseline, 1e-5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, target); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProblem builds an NLoS problem with n parabolic SP4T elements.
func benchProblem(b *testing.B, n int) *Problem {
	b.Helper()
	env := propagation.NewEnvironment(12, 9, 3)
	env.AddScatterers(rand.New(rand.NewPCG(1, 0xa11ce)), 10, 35)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(5.6, 4.2, 0), geom.V(5.9, 5.0, 2.2), 35))
	omni := rfphys.Omni{PeakGainDBi: 2}
	tx := propagation.Node{Pos: geom.V(4.75, 4.5, 1.5), Pattern: omni}
	rx := propagation.Node{Pos: geom.V(7.25, 4.7, 1.3), Pattern: omni}
	pos, err := element.DefaultPlacement.Place(rand.New(rand.NewPCG(1, 0xe1e)), env.Room, tx.Pos, rx.Pos, n)
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]*element.Element, n)
	for i, p := range pos {
		elems[i] = element.NewParabolicElement(p, rx.Pos)
	}
	return &Problem{Env: env, TX: tx, RX: rx, Array: element.NewArray(elems...), Grid: ofdm.WiFi20()}
}
