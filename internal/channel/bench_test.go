package channel

import (
	"math/rand/v2"
	"testing"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// BenchmarkSumMoving measures one Model.Sum per op on a walking link: a
// 6×5×3 m room with 30 scatterers, a receiver moving at 3 mph, eight
// parabolic elements and WiFi20's 52 subcarriers, cycling through 64
// random configurations 78 ms of simulated time apart.
func BenchmarkSumMoving(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 99))
	env := propagation.NewEnvironment(6, 5, 3)
	env.AddScatterers(rng, 6, 30)
	tx := propagation.Node{Pos: geom.V(1.5, 2.5, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}}
	rx := propagation.Node{Pos: geom.V(4, 2.7, 1.3), Pattern: rfphys.Omni{PeakGainDBi: 2},
		Velocity: geom.V(rfphys.MphToMps(3), 0, 0)}
	pos, err := element.DefaultPlacement.Place(rng, env.Room, tx.Pos, rx.Pos, 8)
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]*element.Element, len(pos))
	for i, p := range pos {
		elems[i] = element.NewParabolicElement(p, rx.Pos)
	}
	arr := element.NewArray(elems...)
	models, err := Build(env, []propagation.Node{tx}, []propagation.Node{rx}, arr, ofdm.WiFi20(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := models[0]
	if !m.moving {
		b.Fatal("the walking link's model is static")
	}
	cfgs := make([]element.Config, 64)
	for i := range cfgs {
		cfgs[i] = arr.ConfigAt(rng.IntN(arr.NumConfigs()))
	}
	h := make([]complex128, len(m.freqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sum(h, cfgs[i%len(cfgs)], nil, float64(i)*0.078)
	}
}
