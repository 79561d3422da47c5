package inverse

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"press/internal/channel"
	"press/internal/cmat"
	"press/internal/element"
	"press/internal/geom"
	"press/internal/obs"
	"press/internal/obs/scope"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

func testProblem(seed uint64) *Problem {
	env := propagation.NewEnvironment(6, 5, 3)
	env.AddScatterers(rand.New(rand.NewPCG(seed, 99)), 6, 30)
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(2.6, 2.2, 0), geom.V(2.9, 3.0, 2.2), 35))
	tx := propagation.Node{Pos: geom.V(1.5, 2.5, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}}
	rx := propagation.Node{Pos: geom.V(4, 2.7, 1.3), Pattern: rfphys.Omni{PeakGainDBi: 2}}
	arr := element.NewArray(
		element.NewParabolicElement(geom.V(2.5, 1.5, 1.5), rx.Pos),
		element.NewParabolicElement(geom.V(3.0, 1.25, 1.5), rx.Pos),
		element.NewParabolicElement(geom.V(3.5, 1.5, 1.5), rx.Pos),
	)
	return &Problem{Env: env, TX: tx, RX: rx, Array: arr, Grid: ofdm.WiFi20()}
}

// model returns p's channel model, failing the test on error.
func model(t *testing.T, p *Problem) *channel.Model {
	t.Helper()
	m, err := p.model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// apply returns the model's response under cfg at t = 0.
func apply(t *testing.T, p *Problem, cfg element.Config) []complex128 {
	h := make([]complex128, p.Grid.NumUsed())
	model(t, p).Sum(h, cfg, nil, 0)
	return h
}

func TestBasisShape(t *testing.T) {
	p := testProblem(1)
	m := model(t, p)
	// Every element contributes a nonzero 52-subcarrier column here.
	for j := 0; j < p.Array.N(); j++ {
		col := cmat.Vector(m.Unit(j))
		if len(col) != 52 {
			t.Fatalf("element %d column has %d entries", j, len(col))
		}
		if col.Norm() == 0 {
			t.Errorf("element %d contributes nothing", j)
		}
	}
}

func TestForwardModelLinearity(t *testing.T) {
	// The model's response under cfg must equal baseline + basis·x(cfg) to
	// within the tiny dispersion of the stub delay across the band.
	p := testProblem(2)
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	baseline, err := p.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	m := model(t, p)

	cfg := element.Config{0, 2, 3} // phases 0, π, terminated
	actual := apply(t, p, cfg)
	for k := range actual {
		want := baseline[k]
		for i, e := range p.Array.Elements {
			refl, extra := e.Reflection(cfg[i], lambda)
			want += m.Unit(i)[k] * refl * cmplx.Exp(complex(0, -2*math.Pi*rfphys.SpeedOfLight/lambda*extra))
		}
		if cmplx.Abs(actual[k]-want) > 2e-2*cmplx.Abs(actual[k])+1e-12 {
			t.Fatalf("subcarrier %d: forward model mismatch %v vs %v", k, actual[k], want)
		}
	}
}

func TestSolveSelfConsistency(t *testing.T) {
	// Target = the channel some known configuration produces. The solver
	// must find a configuration at least as close to it as the baseline —
	// and since the target is exactly realizable, it should essentially
	// recover it.
	p := testProblem(3)
	want := element.Config{1, 2, 0}
	target := apply(t, p, want)

	sol, err := Solve(p, target)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Improved() {
		t.Errorf("solver did not improve on baseline: %v vs %v", sol.AchievedResidual, sol.BaselineResidual)
	}
	if sol.AchievedResidual > 1e-2*sol.BaselineResidual {
		t.Errorf("realizable target not recovered: achieved %v, baseline %v",
			sol.AchievedResidual, sol.BaselineResidual)
	}
}

func TestSolveFlatTarget(t *testing.T) {
	// Ask for a flattened channel at the baseline's median magnitude. The
	// discrete projection cannot reach it exactly, but must not do worse
	// than leaving the array terminated.
	p := testProblem(4)
	baseline, err := p.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	mags := make([]float64, len(baseline))
	for k, h := range baseline {
		mags[k] = cmplx.Abs(h)
	}
	// Median magnitude.
	med := append([]float64(nil), mags...)
	for i := 1; i < len(med); i++ {
		for j := i; j > 0 && med[j] < med[j-1]; j-- {
			med[j], med[j-1] = med[j-1], med[j]
		}
	}
	target := TargetFlat(baseline, med[len(med)/2])

	sol, err := Solve(p, target)
	if err != nil {
		t.Fatal(err)
	}
	if sol.AchievedResidual > sol.BaselineResidual*1.0001 {
		t.Errorf("solution worse than baseline: %v > %v", sol.AchievedResidual, sol.BaselineResidual)
	}
}

func TestProjectToConfig(t *testing.T) {
	arr := element.NewArray(
		&element.Element{Pos: geom.V(1, 1, 1), States: element.SP4TStates()},
	)
	lambda := 0.1218
	amp := rfphys.DBToAmplitude(0) // LossDB 0 in this bare element

	// Coefficient near amplitude·e^{-jπ/2} should pick state 1 (π/2 stub).
	x := cmat.Vector{complex(amp, 0) * cmplx.Exp(complex(0, -math.Pi/2))}
	cfg := ProjectToConfig(arr, x, lambda)
	if cfg[0] != 1 {
		t.Errorf("projected to state %d, want 1 (π/2)", cfg[0])
	}
	// Near-zero coefficient should pick the terminated state.
	cfg = ProjectToConfig(arr, cmat.Vector{0.01}, lambda)
	if arr.Elements[0].States[cfg[0]].Kind != element.Terminate {
		t.Errorf("near-zero coefficient projected to state %d, want terminate", cfg[0])
	}
	// Phase 0 coefficient keeps state 0.
	cfg = ProjectToConfig(arr, cmat.Vector{complex(amp, 0)}, lambda)
	if cfg[0] != 0 {
		t.Errorf("unit coefficient projected to state %d, want 0", cfg[0])
	}
}

func TestSolveValidation(t *testing.T) {
	p := testProblem(5)
	if _, err := Solve(p, make([]complex128, 7)); err == nil {
		t.Error("wrong-length target accepted")
	}
	empty := &Problem{Env: p.Env, TX: p.TX, RX: p.RX, Array: element.NewArray(), Grid: p.Grid}
	if _, err := Solve(empty, make([]complex128, 52)); err == nil {
		t.Error("empty array accepted")
	}
}

func TestTargetNotch(t *testing.T) {
	base := []complex128{1, 1, 1, 1}
	got := TargetNotch(base, 1, 3, 20)
	if got[0] != 1 || got[3] != 1 {
		t.Error("notch touched out-of-range subcarriers")
	}
	want := rfphys.DBToAmplitude(-20)
	if math.Abs(cmplx.Abs(got[1])-want) > 1e-12 || math.Abs(cmplx.Abs(got[2])-want) > 1e-12 {
		t.Errorf("notch depth wrong: %v", got)
	}
	// Out-of-range bounds are clamped safely.
	if out := TargetNotch(base, -5, 99, 10); len(out) != 4 {
		t.Error("bounds not clamped")
	}
}

func TestTargetFlat(t *testing.T) {
	base := []complex128{2i, -3, 0}
	got := TargetFlat(base, 5)
	for k, h := range got {
		if math.Abs(cmplx.Abs(h)-5) > 1e-12 {
			t.Errorf("entry %d magnitude %v, want 5", k, cmplx.Abs(h))
		}
	}
	// Phase preserved where defined.
	if cmplx.Abs(got[0]-5i) > 1e-12 {
		t.Errorf("phase not preserved: %v", got[0])
	}
}

// TestSolveTracesOnce: a Solve traces the environment once and builds
// each element's geometry once, however many states each element has.
func TestSolveTracesOnce(t *testing.T) {
	p := testProblem(6)
	reg := obs.NewRegistry()
	p.Env.AttachScope(scope.Adopt("", reg, nil, nil, nil, nil))
	baseline, err := p.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	traces, elems := reg.Counter("propagation_traces_total"), reg.Counter("propagation_element_paths_total")
	traces0, elems0 := traces.Value(), elems.Value()
	if _, err := Solve(p, TargetFlat(baseline, 1e-6)); err != nil {
		t.Fatal(err)
	}
	if n := traces.Value() - traces0; n != 1 {
		t.Errorf("Solve traced the environment %d times, want 1", n)
	}
	if n := elems.Value() - elems0; n != int64(p.Array.N()) {
		t.Errorf("Solve built %d element paths for %d elements", n, p.Array.N())
	}
}

// TestSolveRejectsDegenerateInput: an invalid grid or environment,
// geometry that is not finite, or a node outside the room (an endpoint
// on a wall counts) is an error from Solve and Baseline,
// returned before anything is traced, never a NaN solution.
func TestSolveRejectsDegenerateInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(p *Problem)
	}{
		{"NaN TX position", func(p *Problem) { p.TX.Pos.X = nan }},
		{"+Inf RX position", func(p *Problem) { p.RX.Pos.Y = inf }},
		{"NaN RX velocity", func(p *Problem) { p.RX.Velocity.Z = nan }},
		{"-Inf TX velocity", func(p *Problem) { p.TX.Velocity.X = -inf }},
		{"NaN element position", func(p *Problem) { p.Array.Elements[1].Pos.Z = nan }},
		{"NaN grid center", func(p *Problem) { p.Grid.CenterHz = nan }},
		{"+Inf grid center", func(p *Problem) { p.Grid.CenterHz = inf }},
		{"zero grid spacing", func(p *Problem) { p.Grid.SpacingHz = 0 }},
		{"NaN room width", func(p *Problem) { p.Env.Room.Size.Y = nan }},
		{"NaN scatterer velocity", func(p *Problem) { p.Env.Scatterers[0].Velocity.X = nan }},
		{"MaxOrder 9", func(p *Problem) { p.Env.MaxOrder = 9 }},
		{"TX behind a wall", func(p *Problem) { p.TX.Pos.X = -3 }},
		{"TX 100 m outside", func(p *Problem) { p.TX.Pos = geom.V(106, 105, 1.5) }},
		{"TX on the wall", func(p *Problem) { p.TX.Pos.X = 0 }},
		{"element outside", func(p *Problem) { p.Array.Elements[0].Pos.Z = -0.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testProblem(7)
			reg := obs.NewRegistry()
			p.Env.AttachScope(scope.Adopt("", reg, nil, nil, nil, nil))
			tc.edit(p)
			if sol, err := Solve(p, make([]complex128, p.Grid.NumUsed())); err == nil {
				t.Errorf("Solve accepted: %+v", sol)
			}
			if _, err := p.Baseline(); err == nil {
				t.Error("Baseline accepted")
			}
			if n := reg.Counter("propagation_traces_total").Value(); n != 0 {
				t.Errorf("traced %d times before rejecting", n)
			}
		})
	}
}
