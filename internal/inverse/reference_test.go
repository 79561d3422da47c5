package inverse

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/cmat"
	"press/internal/element"
	"press/internal/fpexact"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// The forward model as it was before the channel model existed: it
// re-traces the environment and the elements on every call and scores
// candidates with K·N phasor products. Solve is checked against refSolve
// bit for bit (TestSolveMatchesReference).

// refBaseline returns the environment-only channel response (all
// elements terminated) on the problem's grid.
func refBaseline(p *Problem) []complex128 {
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	paths := propagation.TracePaths(p.Env, p.TX, p.RX, lambda)
	return propagation.Response(paths, p.Grid.Frequencies(), 0)
}

// refBasis returns the K×N matrix B with B[k][i] = element i's path
// response on subcarrier k at unit reflection (phase 0, amplitude 1).
// Elements whose geometry contributes no path yield a zero column.
func refBasis(p *Problem) *cmat.Matrix {
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	freqs := p.Grid.Frequencies()
	b := cmat.New(len(freqs), p.Array.N())
	for i, e := range p.Array.Elements {
		path, ok := propagation.BistaticPath(p.Env, p.TX, p.RX, e.Pos, e.Pattern, 1, 0, lambda)
		if !ok {
			continue
		}
		resp := propagation.Response([]propagation.Path{path}, freqs, 0)
		for k := range resp {
			b.Set(k, i, resp[k])
		}
	}
	return b
}

// refApply returns the full channel response under cfg (environment plus
// element paths).
func refApply(p *Problem, cfg element.Config) []complex128 {
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	paths := propagation.TracePaths(p.Env, p.TX, p.RX, lambda)
	paths = append(paths, p.Array.Paths(p.Env, p.TX, p.RX, cfg, lambda)...)
	return propagation.Response(paths, p.Grid.Frequencies(), 0)
}

// refStatePhasor returns the effective carrier-frequency reflection
// phasor of element e's state si: amplitude·e^{-jφ}, or 0 for terminate.
func refStatePhasor(e *element.Element, si int, lambdaM float64) complex128 {
	refl, extraDelay := e.Reflection(si, lambdaM)
	return refl * rfphys.Cis(-2*math.Pi*rfphys.SpeedOfLight/lambdaM*extraDelay)
}

// refModelResidual2 returns ‖basis·x(cfg) − delta‖² under the linear
// model.
func refModelResidual2(arr *element.Array, basis *cmat.Matrix, delta cmat.Vector,
	cfg element.Config, lambdaM float64) float64 {

	var sum float64
	for k := 0; k < basis.Rows; k++ {
		acc := -delta[k]
		for i := range cfg {
			acc += basis.At(k, i) * refStatePhasor(arr.Elements[i], cfg[i], lambdaM)
		}
		sum += real(acc)*real(acc) + imag(acc)*imag(acc)
	}
	return sum
}

// refRefineDiscrete is refineDiscrete over refModelResidual2.
func refRefineDiscrete(arr *element.Array, basis *cmat.Matrix, delta cmat.Vector,
	warm element.Config, lambdaM float64) element.Config {

	best := warm.Clone()
	bestRes := refModelResidual2(arr, basis, delta, best, lambdaM)
	if arr.NumConfigs() <= 4096 {
		arr.EachConfig(func(_ int, c element.Config) bool {
			if r := refModelResidual2(arr, basis, delta, c, lambdaM); r < bestRes {
				bestRes = r
				best = c.Clone()
			}
			return true
		})
		return best
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		for i := range best {
			for si := 0; si < arr.Elements[i].NumStates(); si++ {
				if si == best[i] {
					continue
				}
				cand := best.Clone()
				cand[i] = si
				if r := refModelResidual2(arr, basis, delta, cand, lambdaM); r < bestRes {
					bestRes, best = r, cand
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// refSolve is Solve over the reference forward model.
func refSolve(p *Problem, target []complex128) *Solution {
	baseline := refBaseline(p)
	basis := refBasis(p)
	delta := make(cmat.Vector, len(target))
	var baseRes float64
	for k := range target {
		delta[k] = target[k] - baseline[k]
		baseRes += real(delta[k])*real(delta[k]) + imag(delta[k])*imag(delta[k])
	}
	baseRes = math.Sqrt(baseRes)
	x := cmat.PseudoInverse(basis, 1e-6).MulVec(delta)
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	cfg := ProjectToConfig(p.Array, x, lambda)
	cfg = refRefineDiscrete(p.Array, basis, delta, cfg, lambda)
	achieved := refApply(p, cfg)
	var achRes float64
	for k := range target {
		d := achieved[k] - target[k]
		achRes += real(d)*real(d) + imag(d)*imag(d)
	}
	achRes = math.Sqrt(achRes)
	return &Solution{Continuous: x, Config: cfg, BaselineResidual: baseRes, AchievedResidual: achRes}
}

func randIn(rng *rand.Rand, lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

func randPos(rng *rand.Rand, room geom.Room) geom.Vec {
	return geom.V(randIn(rng, 0.3, room.Size.X-0.3), randIn(rng, 0.3, room.Size.Y-0.3), randIn(rng, 0.3, room.Size.Z-0.3))
}

func randVelocity(rng *rand.Rand) geom.Vec {
	return geom.V(randIn(rng, -2, 2), randIn(rng, -2, 2), randIn(rng, -0.5, 0.5))
}

// randomProblem builds a problem in a random room: random size,
// reflection order, scatterers and blocker; endpoints that may move (the
// model is evaluated at t = 0); and 1–5 or 7 parabolic, omni or active
// elements with SP4T or four-phase banks. Some active elements sit in a
// small lossy box that puts their unit-reflection path within a few dB of
// the -180 dB floor, so the floor can fall between the unit path and an
// amplified state's path.
func randomProblem(rng *rand.Rand) *Problem {
	env := propagation.NewEnvironment(randIn(rng, 4, 12), randIn(rng, 4, 10), randIn(rng, 2.5, 4))
	env.MaxOrder = rng.IntN(3)
	env.AddScatterers(rng, rng.IntN(8), randIn(rng, 10, 40))
	if rng.IntN(2) == 0 {
		lo := randPos(rng, env.Room)
		env.Blockers = append(env.Blockers, geom.NewBlocker(lo, lo.Add(geom.V(0.3, 0.6, 1.5)), randIn(rng, 5, 35)))
	}
	omni := rfphys.Omni{PeakGainDBi: 2}
	p := &Problem{
		Env:  env,
		TX:   propagation.Node{Pos: randPos(rng, env.Room), Pattern: omni},
		RX:   propagation.Node{Pos: randPos(rng, env.Room), Pattern: omni},
		Grid: ofdm.WiFi20(),
	}
	if rng.IntN(3) == 0 {
		p.Grid = ofdm.USRP102()
	}
	switch rng.IntN(4) {
	case 0:
		p.TX.Velocity = randVelocity(rng)
	case 1:
		p.RX.Velocity = randVelocity(rng)
	case 2:
		if len(env.Scatterers) > 0 {
			env.Scatterers[rng.IntN(len(env.Scatterers))].Velocity = randVelocity(rng)
		}
	}
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	// Up to five elements are searched exhaustively; seven (16,384
	// configurations) by coordinate descent.
	n := 1 + rng.IntN(5)
	if rng.IntN(6) == 0 {
		n = 7
	}
	elems := make([]*element.Element, n)
	for i := range elems {
		pos := randPos(rng, env.Room)
		switch rng.IntN(4) {
		case 0:
			elems[i] = element.NewParabolicElement(pos, p.RX.Pos)
		case 1:
			elems[i] = element.NewOmniElement(pos)
		case 2:
			elems[i] = element.NewActiveElement(pos, randIn(rng, 3, 20))
		default:
			e := element.NewActiveElement(pos, randIn(rng, 3, 20))
			if g, ok := propagation.ElementPath(env, p.TX, p.RX, e.Pos, e.Pattern, lambda); ok {
				// Each segment crosses the box once. Put the unit path
				// up to 6 dB above the floor or below it by up to the
				// element's gain plus 6 dB, so that either path, both or
				// neither may fall below it.
				lossDB := rfphys.AmplitudeToDB(cmplx.Abs(g.Gain)/1e-9) + randIn(rng, -6, e.ActiveGainDB+6)
				env.Blockers = append(env.Blockers,
					geom.NewBlocker(pos.Sub(geom.V(0.02, 0.02, 0.02)), pos.Add(geom.V(0.02, 0.02, 0.02)), lossDB/2))
			}
			elems[i] = e
		}
		if rng.IntN(3) == 0 {
			elems[i].States = element.FourPhaseStates()
		}
	}
	p.Array = element.NewArray(elems...)
	return p
}

// randomTarget returns a flat, notched or exactly realizable target for
// p, built from the reference forward model.
func randomTarget(rng *rand.Rand, p *Problem) []complex128 {
	baseline := refBaseline(p)
	switch rng.IntN(3) {
	case 0:
		var ss float64
		for _, h := range baseline {
			ss += real(h)*real(h) + imag(h)*imag(h)
		}
		return TargetFlat(baseline, math.Sqrt(ss/float64(len(baseline)))*randIn(rng, 0.5, 2))
	case 1:
		return TargetNotch(baseline, 0, len(baseline)/2, randIn(rng, 3, 20))
	}
	c := make(element.Config, p.Array.N())
	for i, e := range p.Array.Elements {
		c[i] = rng.IntN(e.NumStates())
	}
	return refApply(p, c)
}

// TestSolveMatchesReference: Solve on the channel model returns the same
// Continuous coefficients, Config and residuals as the re-tracing
// reference, in Float64bits, on 200 random problems; and the narrowband
// table scores random configurations as refModelResidual2 does.
func TestSolveMatchesReference(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; the model and the reference may round differently")
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	rng := rand.New(rand.NewPCG(20, 1))
	var straddles, culled, descents int
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng)
		lambda := rfphys.Wavelength(p.Grid.CenterHz)
		for _, e := range p.Array.Elements {
			_, unit := propagation.BistaticPath(p.Env, p.TX, p.RX, e.Pos, e.Pattern, 1, 0, lambda)
			refl, extra := e.Reflection(0, lambda)
			_, state := propagation.BistaticPath(p.Env, p.TX, p.RX, e.Pos, e.Pattern, refl, extra, lambda)
			if state && !unit {
				straddles++
			}
			if _, ok := propagation.ElementPath(p.Env, p.TX, p.RX, e.Pos, e.Pattern, lambda); ok && !state {
				culled++
			}
		}
		if p.Array.NumConfigs() > 4096 {
			descents++
		}
		target := randomTarget(rng, p)
		got, err := Solve(p, target)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := refSolve(p, target)
		// The refinement's scores, which Solve does not return.
		m, err := p.model()
		if err != nil {
			t.Fatal(err)
		}
		basis, baseline := refBasis(p), refBaseline(p)
		delta, negDelta := make(cmat.Vector, len(target)), make([]complex128, len(target))
		for k := range target {
			delta[k] = target[k] - baseline[k]
			negDelta[k] = -delta[k]
		}
		nb, h := m.Narrowband(negDelta), make([]complex128, len(target))
		for c := 0; c < 8; c++ {
			cfg := p.Array.ConfigAt(rng.IntN(p.Array.NumConfigs()))
			if r, w := residual2(nb, h, cfg), refModelResidual2(p.Array, basis, delta, cfg, lambda); !same(r, w) {
				t.Fatalf("trial %d: residual² of %v = %v, reference %v", trial, cfg, r, w)
			}
		}
		if !got.Config.Equal(want.Config) {
			t.Fatalf("trial %d: Config %v, reference %v", trial, got.Config, want.Config)
		}
		if !same(got.BaselineResidual, want.BaselineResidual) || !same(got.AchievedResidual, want.AchievedResidual) {
			t.Fatalf("trial %d: residuals %v, %v; reference %v, %v", trial,
				got.BaselineResidual, got.AchievedResidual, want.BaselineResidual, want.AchievedResidual)
		}
		for i, x := range got.Continuous {
			w := want.Continuous[i]
			if !same(real(x), real(w)) || !same(imag(x), imag(w)) {
				t.Fatalf("trial %d: Continuous[%d] = %v, reference %v", trial, i, x, w)
			}
		}
	}
	// Both floor cases and coordinate descent must have been exercised.
	if straddles == 0 || culled == 0 || descents == 0 {
		t.Fatalf("%d elements straddled the floor, %d had a reflective state below it and %d problems used coordinate descent; want all > 0",
			straddles, culled, descents)
	}
	t.Logf("%d elements straddled the floor, %d had a reflective state below it, %d problems used coordinate descent",
		straddles, culled, descents)
}
