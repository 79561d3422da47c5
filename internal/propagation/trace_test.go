package propagation

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/fpexact"
	"press/internal/geom"
	"press/internal/rfphys"
)

const lambda = 0.1218 // 2.462 GHz, the paper's channel 11

func testEnv() *Environment {
	return NewEnvironment(6, 5, 3)
}

func staticNodes() (Node, Node) {
	tx := Node{Pos: geom.V(1, 2.5, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}}
	rx := Node{Pos: geom.V(5, 2.5, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}}
	return tx, rx
}

func findKind(paths []Path, k Kind) []Path {
	var out []Path
	for _, p := range paths {
		if p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

func TestDirectPathGeometry(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	p, ok := directPath(env, tx, rx, lambda)
	if !ok {
		t.Fatal("no direct path in empty room")
	}
	d := tx.Pos.Dist(rx.Pos)
	if math.Abs(p.Delay-d/rfphys.SpeedOfLight) > 1e-18 {
		t.Errorf("delay = %v, want %v", p.Delay, d/rfphys.SpeedOfLight)
	}
	// Amplitude = Friis × both antenna gains (horizontal: 2 dBi each).
	want := rfphys.FriisAmplitude(d, lambda) * rfphys.DBToAmplitude(2) * rfphys.DBToAmplitude(2)
	if math.Abs(cmplx.Abs(p.Gain)-want) > 1e-12 {
		t.Errorf("gain = %v, want %v", cmplx.Abs(p.Gain), want)
	}
	if p.AoD != geom.V(1, 0, 0) || p.AoA != geom.V(1, 0, 0) {
		t.Errorf("angles wrong: AoD %v AoA %v", p.AoD, p.AoA)
	}
}

func TestDirectPathBlocked(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	clear, _ := directPath(env, tx, rx, lambda)
	env.Blockers = append(env.Blockers, geom.NewBlocker(geom.V(2.8, 2, 0), geom.V(3.2, 3, 3), 30))
	blocked, ok := directPath(env, tx, rx, lambda)
	if !ok {
		t.Fatal("blocked path should still exist, just attenuated")
	}
	dropDB := rfphys.AmplitudeToDB(cmplx.Abs(clear.Gain) / cmplx.Abs(blocked.Gain))
	if math.Abs(dropDB-30) > 1e-9 {
		t.Errorf("blocker dropped %v dB, want 30", dropDB)
	}
}

func TestSingleBouncePathLengthMatchesImage(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	for _, w := range geom.Walls() {
		p, ok := imagePath(env, tx, rx, lambda, []geom.Wall{w})
		if !ok {
			t.Errorf("wall %v: missing single-bounce path", w)
			continue
		}
		wantLen := env.Room.Mirror(tx.Pos, w).Dist(rx.Pos)
		gotLen := p.Delay * rfphys.SpeedOfLight
		if math.Abs(gotLen-wantLen) > 1e-9 {
			t.Errorf("wall %v: path length %v, want %v", w, gotLen, wantLen)
		}
		if p.Hops != 1 || p.Kind != KindWall {
			t.Errorf("wall %v: hops/kind wrong: %+v", w, p)
		}
	}
}

func TestReflectionWeakerThanDirect(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	paths := TracePaths(env, tx, rx, lambda)
	direct := findKind(paths, KindDirect)
	if len(direct) != 1 {
		t.Fatalf("want 1 direct path, got %d", len(direct))
	}
	for _, p := range findKind(paths, KindWall) {
		if cmplx.Abs(p.Gain) >= cmplx.Abs(direct[0].Gain) {
			t.Errorf("%d-bounce path stronger than direct: %v >= %v",
				p.Hops, cmplx.Abs(p.Gain), cmplx.Abs(direct[0].Gain))
		}
	}
}

func TestTracePathCounts(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()

	env.MaxOrder = 0
	if got := len(TracePaths(env, tx, rx, lambda)); got != 1 {
		t.Errorf("order 0: %d paths, want 1 (direct)", got)
	}
	env.MaxOrder = 1
	p1 := TracePaths(env, tx, rx, lambda)
	if got := len(findKind(p1, KindWall)); got != 6 {
		t.Errorf("order 1: %d wall paths, want 6", got)
	}
	env.MaxOrder = 2
	p2 := TracePaths(env, tx, rx, lambda)
	// 6 single bounces plus the double bounces whose specular geometry
	// exists (not all 30 wall sequences do — e.g. floor-then-sidewall has
	// no specular solution for endpoints at equal height).
	var singles, doubles int
	for _, p := range findKind(p2, KindWall) {
		switch p.Hops {
		case 1:
			singles++
		case 2:
			doubles++
		}
	}
	if singles != 6 {
		t.Errorf("order 2: %d single bounces, want 6", singles)
	}
	if doubles < 10 {
		t.Errorf("order 2: only %d double bounces", doubles)
	}
	if len(findKind(p2, KindDirect)) != 1 {
		t.Error("order 2 lost the direct path")
	}
}

func TestDoubleBounceWeakerThanSingle(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	env.MaxOrder = 2
	paths := findKind(TracePaths(env, tx, rx, lambda), KindWall)
	var maxSingle, maxDouble float64
	for _, p := range paths {
		a := cmplx.Abs(p.Gain)
		switch p.Hops {
		case 1:
			if a > maxSingle {
				maxSingle = a
			}
		case 2:
			if a > maxDouble {
				maxDouble = a
			}
		}
	}
	if maxDouble >= maxSingle {
		t.Errorf("strongest double bounce (%v) >= strongest single (%v)", maxDouble, maxSingle)
	}
}

func TestScattererPath(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	s := Scatterer{Pos: geom.V(3, 1, 1.5), Gain: 2}
	p, ok := scatterPath(env, tx, rx, s, lambda)
	if !ok {
		t.Fatal("scatterer path missing")
	}
	d1 := tx.Pos.Dist(s.Pos)
	d2 := s.Pos.Dist(rx.Pos)
	if math.Abs(p.Delay-(d1+d2)/rfphys.SpeedOfLight) > 1e-18 {
		t.Errorf("delay = %v", p.Delay)
	}
	// Scatterer farther away yields a weaker path.
	far := Scatterer{Pos: geom.V(3, 0.2, 0.2), Gain: 2}
	pf, _ := scatterPath(env, tx, rx, far, lambda)
	if cmplx.Abs(pf.Gain) >= cmplx.Abs(p.Gain) {
		t.Error("farther scatterer should be weaker")
	}
}

func TestAddScatterersDeterministic(t *testing.T) {
	e1 := testEnv()
	e2 := testEnv()
	e1.AddScatterers(rand.New(rand.NewPCG(1, 2)), 10, 2)
	e2.AddScatterers(rand.New(rand.NewPCG(1, 2)), 10, 2)
	if len(e1.Scatterers) != 10 || len(e2.Scatterers) != 10 {
		t.Fatalf("scatterer counts: %d, %d", len(e1.Scatterers), len(e2.Scatterers))
	}
	for i := range e1.Scatterers {
		if e1.Scatterers[i] != e2.Scatterers[i] {
			t.Fatal("same seed produced different scatterers")
		}
		if !e1.Room.Contains(e1.Scatterers[i].Pos) {
			t.Fatalf("scatterer %d outside room", i)
		}
	}
	if err := e1.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesBadState(t *testing.T) {
	env := testEnv()
	env.MaxOrder = 9
	if env.Validate() == nil {
		t.Error("Validate accepted MaxOrder 9")
	}
	env.MaxOrder = 2
	env.Scatterers = []Scatterer{{Pos: geom.V(-1, 0, 0), Gain: 1}}
	if env.Validate() == nil {
		t.Error("Validate accepted out-of-room scatterer")
	}
}

func TestDopplerStaticIsZero(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	for _, p := range TracePaths(env, tx, rx, lambda) {
		if p.DopplerHz != 0 {
			t.Fatalf("static endpoints produced Doppler %v on %v path", p.DopplerHz, p.Kind)
		}
	}
}

func TestDopplerMovingReceiver(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	// RX moving away from TX along the LoS at 1 m/s: direct-path Doppler
	// is -v/λ.
	rx.Velocity = geom.V(1, 0, 0)
	p, _ := directPath(env, tx, rx, lambda)
	want := -1.0 / lambda
	if math.Abs(p.DopplerHz-want) > 1e-9 {
		t.Errorf("Doppler = %v, want %v", p.DopplerHz, want)
	}
	// Moving toward: positive.
	rx.Velocity = geom.V(-1, 0, 0)
	p, _ = directPath(env, tx, rx, lambda)
	if math.Abs(p.DopplerHz+want) > 1e-9 {
		t.Errorf("Doppler toward = %v, want %v", p.DopplerHz, -want)
	}
}

func TestBistaticPath(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	via := geom.V(3, 1.5, 1.5)

	// Terminated element contributes nothing.
	if _, ok := BistaticPath(env, tx, rx, via, nil, 0, 0, lambda); ok {
		t.Error("terminated element should contribute no path")
	}

	p, ok := BistaticPath(env, tx, rx, via, nil, 1, 0, lambda)
	if !ok {
		t.Fatal("element path missing")
	}
	d := tx.Pos.Dist(via) + via.Dist(rx.Pos)
	if math.Abs(p.Delay-d/rfphys.SpeedOfLight) > 1e-18 {
		t.Errorf("delay = %v", p.Delay)
	}
	if p.Kind != KindElement {
		t.Errorf("kind = %v", p.Kind)
	}

	// A reflection phase rotates the gain without changing its magnitude.
	pRot, _ := BistaticPath(env, tx, rx, via, nil, cmplx.Rect(1, math.Pi/2), 0, lambda)
	if math.Abs(cmplx.Abs(pRot.Gain)-cmplx.Abs(p.Gain)) > 1e-15 {
		t.Error("phase rotation changed magnitude")
	}
	dPhase := cmplx.Phase(pRot.Gain / p.Gain)
	if math.Abs(dPhase-math.Pi/2) > 1e-9 {
		t.Errorf("phase shift = %v, want π/2", dPhase)
	}

	// An extra stub delay of λ/4 shifts the response phase by ≈π/2 at the
	// carrier.
	pStub, _ := BistaticPath(env, tx, rx, via, nil, 1, (lambda/4)/rfphys.SpeedOfLight, lambda)
	f := rfphys.SpeedOfLight / lambda
	h0 := ResponseAt([]Path{p}, f, 0)
	h1 := ResponseAt([]Path{pStub}, f, 0)
	shift := math.Mod(cmplx.Phase(h0/h1)+2*math.Pi, 2*math.Pi)
	if math.Abs(shift-math.Pi/2) > 1e-6 {
		t.Errorf("stub phase shift = %v, want π/2", shift)
	}

	// A directional element pointing away from both endpoints is weaker
	// than an isotropic one.
	away := rfphys.Parabolic{Boresight: geom.V(0, -1, 0), PeakGainDBi: 14, BeamwidthDeg: 21}
	pAway, ok := BistaticPath(env, tx, rx, via, away, 1, 0, lambda)
	if ok && cmplx.Abs(pAway.Gain) >= cmplx.Abs(p.Gain) {
		t.Error("mispointed parabolic should be weaker than isotropic")
	}
}

func TestBistaticBlockerLoss(t *testing.T) {
	env := testEnv()
	tx, rx := staticNodes()
	via := geom.V(3, 1, 1.5)
	clear, _ := BistaticPath(env, tx, rx, via, nil, 1, 0, lambda)
	// Block the TX→element segment only.
	env.Blockers = append(env.Blockers, geom.NewBlocker(geom.V(1.9, 1.4, 0), geom.V(2.1, 2.1, 3), 20))
	blocked, ok := BistaticPath(env, tx, rx, via, nil, 1, 0, lambda)
	if !ok {
		t.Fatal("blocked element path should survive at reduced power")
	}
	drop := rfphys.AmplitudeToDB(cmplx.Abs(clear.Gain) / cmplx.Abs(blocked.Gain))
	if math.Abs(drop-20) > 1e-9 {
		t.Errorf("blocker dropped %v dB, want 20", drop)
	}
}

func TestNLoSChannelIsFrequencySelective(t *testing.T) {
	// The core premise of the paper's §3.2 setup: blocking the direct
	// path yields a channel dominated by multipath, hence strong
	// frequency selectivity across a 20 MHz band.
	env := testEnv()
	// Panel-scale metal reflectors: a flat plate at 2 m behaves like an
	// image source, equivalent to a point-scatterer gain of
	// 4π·d1·d2/(λ(d1+d2)) ≈ 30–100, hence amp 30 here.
	env.AddScatterers(rand.New(rand.NewPCG(42, 7)), 6, 30)
	tx, rx := staticNodes()
	rx.Pos = geom.V(5, 3.1, 1.3) // off-axis so wall-pair delays are distinct
	env.Blockers = append(env.Blockers, geom.NewBlocker(geom.V(2.8, 2, 0), geom.V(3.2, 3, 3), 40))

	paths := TracePaths(env, tx, rx, lambda)
	fc := rfphys.SpeedOfLight / lambda
	var mags []float64
	for i := -26; i <= 26; i++ {
		f := fc + float64(i)*312.5e3
		mags = append(mags, cmplx.Abs(ResponseAt(paths, f, 0)))
	}
	minV, maxV := mags[0], mags[0]
	for _, m := range mags {
		minV = math.Min(minV, m)
		maxV = math.Max(maxV, m)
	}
	swingDB := rfphys.AmplitudeToDB(maxV / minV)
	if swingDB < 3 {
		t.Errorf("NLoS channel swing only %v dB; expected frequency selectivity", swingDB)
	}
}

func BenchmarkTracePathsOrder2(b *testing.B) {
	env := testEnv()
	env.AddScatterers(rand.New(rand.NewPCG(1, 1)), 8, 2)
	tx, rx := staticNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TracePaths(env, tx, rx, lambda)
	}
}

func BenchmarkResponse52Subcarriers(b *testing.B) {
	env := testEnv()
	tx, rx := staticNodes()
	paths := TracePaths(env, tx, rx, lambda)
	freqs := make([]float64, 52)
	fc := rfphys.SpeedOfLight / lambda
	for i := range freqs {
		freqs[i] = fc + float64(i-26)*312.5e3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Response(paths, freqs, 0)
	}
}

// oneStepBistaticPath is BistaticPath as one function, before it was split
// into ElementPath and Path.Reflect: the reference for
// TestBistaticPathSplitMatchesOneStep.
func oneStepBistaticPath(env *Environment, tx, rx Node, via geom.Vec, viaPattern rfphys.Pattern,
	reflect complex128, extraDelayS float64, lambdaM float64) (Path, bool) {

	if reflect == 0 {
		return Path{}, false
	}
	d1 := via.Dist(tx.Pos)
	d2 := rx.Pos.Dist(via)
	if d1 == 0 || d2 == 0 {
		return Path{}, false
	}
	if viaPattern == nil {
		viaPattern = rfphys.Isotropic{}
	}
	aod := via.Sub(tx.Pos).Unit()
	aoa := rx.Pos.Sub(via).Unit()
	amp := rfphys.FriisAmplitude(d1, lambdaM) * rfphys.FriisAmplitude(d2, lambdaM)
	amp *= tx.pattern().Gain(aod) * rx.pattern().Gain(aoa.Scale(-1))
	amp *= viaPattern.Gain(aod.Scale(-1)) * viaPattern.Gain(aoa)
	lossDB := geom.SegmentLossDB(env.Blockers, tx.Pos, via) +
		geom.SegmentLossDB(env.Blockers, via, rx.Pos)
	gain := complex(amp*rfphys.DBToAmplitude(-lossDB), 0) * reflect
	if tooWeak(cmplx.Abs(gain)) {
		return Path{}, false
	}
	return Path{
		Gain:      gain,
		Delay:     (d1+d2)/rfphys.SpeedOfLight + extraDelayS,
		AoD:       aod,
		AoA:       aoa,
		DopplerHz: doppler(tx, rx, aod, aoa, lambdaM),
		Kind:      KindElement,
		Hops:      1,
	}, true
}

// TestBistaticPathSplitMatchesOneStep: deriving a state's path from the
// element's unit-reflection geometry (ElementPath, then Reflect), as a
// channel model does once per element, gives exactly the one-step
// path, field by field and bit for bit, on random geometries with moving
// endpoints, parabolic and omni elements, active and passive
// reflections and lossy boxes around the element that put the path near
// the -180 dB floor; and the path exists in the same cases.
func TestBistaticPathSplitMatchesOneStep(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; the two forms may round differently")
	}
	rng := rand.New(rand.NewPCG(20, 2))
	bits := math.Float64bits
	env := testEnv()
	var nearFloor int
	for trial := 0; trial < 6000; trial++ {
		pos := func() geom.Vec {
			return geom.V(0.2+rng.Float64()*5.6, 0.2+rng.Float64()*4.6, 0.2+rng.Float64()*2.6)
		}
		tx := Node{Pos: pos(), Pattern: rfphys.Omni{PeakGainDBi: 2}}
		rx := Node{Pos: pos(), Pattern: rfphys.Omni{PeakGainDBi: 2}}
		if rng.IntN(2) == 0 {
			tx.Velocity = geom.V(rng.NormFloat64(), rng.NormFloat64(), 0)
		}
		via := pos()
		switch rng.IntN(8) {
		case 0:
			via = tx.Pos
		case 1:
			via = rx.Pos
		}
		var pattern rfphys.Pattern
		if rng.IntN(2) == 0 {
			pattern = rfphys.Parabolic{Boresight: rx.Pos.Sub(via), PeakGainDBi: 14, BeamwidthDeg: 21, SidelobeDB: -13}
		}
		env.Blockers = env.Blockers[:0]
		if rng.IntN(2) == 0 {
			lossDB := rng.Float64() * 160
			env.Blockers = append(env.Blockers,
				geom.NewBlocker(via.Sub(geom.V(0.01, 0.01, 0.01)), via.Add(geom.V(0.01, 0.01, 0.01)), lossDB))
		}
		refl := complex(rfphys.DBToAmplitude(rng.Float64()*40-20), 0)
		if rng.IntN(8) == 0 {
			refl = 0
		}
		extra := rng.Float64() * lambda / rfphys.SpeedOfLight
		want, wantOK := oneStepBistaticPath(env, tx, rx, via, pattern, refl, extra, lambda)
		got, gotOK := BistaticPath(env, tx, rx, via, pattern, refl, extra, lambda)
		if gotOK != wantOK {
			t.Fatalf("trial %d: path exists %v, one-step %v", trial, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		if a := cmplx.Abs(want.Gain); a < 1e-8 {
			nearFloor++
		}
		if bits(real(got.Gain)) != bits(real(want.Gain)) || bits(imag(got.Gain)) != bits(imag(want.Gain)) ||
			bits(got.Delay) != bits(want.Delay) || bits(got.DopplerHz) != bits(want.DopplerHz) ||
			got.AoD != want.AoD || got.AoA != want.AoA || got.Kind != want.Kind || got.Hops != want.Hops {
			t.Fatalf("trial %d: split path %+v, one-step %+v", trial, got, want)
		}
	}
	if nearFloor == 0 {
		t.Fatal("no kept path came within 20 dB of the floor")
	}
}
