// Package inverse implements the paper's §2 "inverse problem": given the
// existing wireless channel between sender and receiver, compute the
// parameters of the *controllable* paths — the PRESS elements' complex
// reflection coefficients — such that the superposition of environment
// and element paths approximates a desired channel.
//
// The key observation is that the channel is linear in the element
// reflection coefficients: H(f) = H_env(f) + Σ_i B_i(f)·x_i, where
// B_i(f) is element i's unit-reflection path response and x_i its
// complex reflection coefficient. Choosing x to approach a target
// H*(f) is therefore a complex least-squares problem, followed by a
// projection onto each element's realizable (discrete, passive) states.
package inverse

import (
	"fmt"
	"math"
	"math/cmplx"

	"press/internal/cmat"
	"press/internal/element"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// Problem binds the fixed scene: environment, endpoints, array, grid.
type Problem struct {
	Env   *propagation.Environment
	TX    propagation.Node
	RX    propagation.Node
	Array *element.Array
	Grid  ofdm.Grid
}

// Baseline returns the environment-only channel response (all elements
// terminated) on the problem's grid.
func (p *Problem) Baseline() []complex128 {
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	paths := propagation.TracePaths(p.Env, p.TX, p.RX, lambda)
	return propagation.Response(paths, p.Grid.Frequencies(), 0)
}

// Basis returns the K×N matrix B with B[k][i] = element i's path response
// on subcarrier k at unit reflection (phase 0, amplitude 1). Elements
// whose geometry contributes no path (blocked below the floor) yield a
// zero column.
func (p *Problem) Basis() *cmat.Matrix {
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

// Solution is the outcome of one inverse solve.
type Solution struct {
	// Continuous holds the unconstrained least-squares reflection
	// coefficients, one per element.
	Continuous cmat.Vector
	// Config is the projection of Continuous onto each element's
	// realizable states.
	Config element.Config
	// BaselineResidual and AchievedResidual are ‖H − H*‖ with all
	// elements terminated and with Config applied, respectively.
	BaselineResidual float64
	AchievedResidual float64
}

// Improved reports whether the projected configuration moved the channel
// strictly closer to the target than doing nothing.
func (s *Solution) Improved() bool { return s.AchievedResidual < s.BaselineResidual }

// Solve computes the reflection coefficients that best approximate the
// target response, then projects them onto the array's discrete states
// and evaluates what the projection actually achieves.
func Solve(p *Problem, target []complex128) (*Solution, error) {
	if len(target) != p.Grid.NumUsed() {
		return nil, fmt.Errorf("inverse: target has %d entries for %d subcarriers", len(target), p.Grid.NumUsed())
	}
	if p.Array.N() == 0 {
		return nil, fmt.Errorf("inverse: empty array")
	}
	baseline := p.Baseline()
	basis := p.Basis()

	// delta = H* − H_env is what the element paths must synthesize.
	delta := make(cmat.Vector, len(target))
	var baseRes float64
	for k := range target {
		delta[k] = target[k] - baseline[k]
		baseRes += real(delta[k])*real(delta[k]) + imag(delta[k])*imag(delta[k])
	}
	baseRes = math.Sqrt(baseRes)

	// Continuous step. Over a 20 MHz band the element responses B_i(f)
	// are nearly frequency-flat, so the basis is close to rank one and
	// plain least squares returns huge, non-physical coefficients. The
	// minimal-norm solution via a truncated pseudo-inverse stays bounded.
	x := cmat.PseudoInverse(basis, 1e-6).MulVec(delta)

	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	cfg := ProjectToConfig(p.Array, x, lambda)
	// Discrete refinement on the forward model (no measurements needed:
	// the model is known, so searching it is free). Small spaces are
	// searched exhaustively; larger ones by coordinate descent from the
	// projected warm start.
	cfg = refineDiscrete(p.Array, basis, delta, cfg, lambda)

	// Evaluate the achieved channel under the projected configuration.
	achieved := p.Apply(cfg)
	var achRes float64
	for k := range target {
		d := achieved[k] - target[k]
		achRes += real(d)*real(d) + imag(d)*imag(d)
	}
	achRes = math.Sqrt(achRes)

	return &Solution{
		Continuous:       x,
		Config:           cfg,
		BaselineResidual: baseRes,
		AchievedResidual: achRes,
	}, nil
}

// Apply returns the full channel response under cfg (environment plus
// element paths), the forward model of the inverse problem.
func (p *Problem) Apply(cfg element.Config) []complex128 {
	lambda := rfphys.Wavelength(p.Grid.CenterHz)
	paths := propagation.TracePaths(p.Env, p.TX, p.RX, lambda)
	paths = append(paths, p.Array.Paths(p.Env, p.TX, p.RX, cfg, lambda)...)
	return propagation.Response(paths, p.Grid.Frequencies(), 0)
}

// statePhasor returns the effective carrier-frequency reflection phasor
// of element e's state si: amplitude·e^{-jφ}, or 0 for terminate.
func statePhasor(e *element.Element, si int, lambdaM float64) complex128 {
	refl, extraDelay := e.Reflection(si, lambdaM)
	return refl * rfphys.Cis(-2*math.Pi*rfphys.SpeedOfLight/lambdaM*extraDelay)
}

// modelResidual2 returns ‖basis·x(cfg) − delta‖² under the linear model.
func modelResidual2(arr *element.Array, basis *cmat.Matrix, delta cmat.Vector,
	cfg element.Config, lambdaM float64) float64 {

	var sum float64
	for k := 0; k < basis.Rows; k++ {
		acc := -delta[k]
		for i := range cfg {
			acc += basis.At(k, i) * statePhasor(arr.Elements[i], cfg[i], lambdaM)
		}
		sum += real(acc)*real(acc) + imag(acc)*imag(acc)
	}
	return sum
}

// refineDiscrete improves a projected configuration against the linear
// forward model: exhaustively for configuration spaces up to 4096, by
// coordinate descent otherwise.
func refineDiscrete(arr *element.Array, basis *cmat.Matrix, delta cmat.Vector,
	warm element.Config, lambdaM float64) element.Config {

	best := warm.Clone()
	bestRes := modelResidual2(arr, basis, delta, best, lambdaM)

	if arr.NumConfigs() <= 4096 {
		arr.EachConfig(func(_ int, c element.Config) bool {
			if r := modelResidual2(arr, basis, delta, c, lambdaM); r < bestRes {
				bestRes = r
				best = c.Clone()
			}
			return true
		})
		return best
	}

	// Coordinate descent from the warm start.
	for pass := 0; pass < 8; pass++ {
		improved := false
		for i := range best {
			for si := 0; si < arr.Elements[i].NumStates(); si++ {
				if si == best[i] {
					continue
				}
				cand := best.Clone()
				cand[i] = si
				if r := modelResidual2(arr, basis, delta, cand, lambdaM); r < bestRes {
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

// ProjectToConfig maps continuous reflection coefficients onto each
// element's nearest realizable state: for every element the state whose
// reflection phasor (amplitude·e^{-jφ}, or 0 for terminate) is closest in
// the complex plane to the desired coefficient.
func ProjectToConfig(arr *element.Array, x cmat.Vector, lambdaM float64) element.Config {
	cfg := make(element.Config, arr.N())
	for i, e := range arr.Elements {
		bestState, bestDist := 0, math.Inf(1)
		for si := 0; si < e.NumStates(); si++ {
			refl, extraDelay := e.Reflection(si, lambdaM)
			// The stub delay realizes the phase at the carrier.
			phasor := refl * rfphys.Cis(-2*math.Pi*rfphys.SpeedOfLight/lambdaM*extraDelay)
			if d := cmplx.Abs(phasor - x[i]); d < bestDist {
				bestState, bestDist = si, d
			}
		}
		cfg[i] = bestState
	}
	return cfg
}

// TargetFlat builds a flat-magnitude target response at the given channel
// amplitude, preserving the baseline's phase (phase is free for the OFDM
// receiver; only |H| drives SNR). It is the natural "remove the null"
// target of the paper's link-enhancement application.
func TargetFlat(baseline []complex128, amplitude float64) []complex128 {
	out := make([]complex128, len(baseline))
	for k, h := range baseline {
		if h == 0 {
			out[k] = complex(amplitude, 0)
			continue
		}
		out[k] = h / complex(cmplx.Abs(h), 0) * complex(amplitude, 0)
	}
	return out
}

// TargetNotch builds a target equal to the baseline except attenuated by
// attenDB inside [lo, hi) — the spectrum-partitioning shape of Figure 2:
// keep your half of the band, suppress the other.
func TargetNotch(baseline []complex128, lo, hi int, attenDB float64) []complex128 {
	out := append([]complex128(nil), baseline...)
	g := complex(rfphys.DBToAmplitude(-attenDB), 0)
	for k := lo; k < hi && k < len(out); k++ {
		if k < 0 {
			continue
		}
		out[k] *= g
	}
	return out
}
