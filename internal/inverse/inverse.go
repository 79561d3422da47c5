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

	"press/internal/channel"
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

// model builds the problem's channel model, the inverse problem's
// forward model, which Solve evaluates at t = 0: the environment H_env
// (Model.Environment), element i's unit-reflection column B_i
// (Model.Unit) and each configuration's response (Model.Sum). An invalid
// grid or environment, or geometry that is not finite, is an error,
// returned before anything is traced.
func (p *Problem) model() (*channel.Model, error) {
	ms, err := channel.Build(p.Env, []propagation.Node{p.TX}, []propagation.Node{p.RX}, p.Array, p.Grid, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("inverse: %w", err)
	}
	return ms[0], nil
}

// Baseline returns the environment-only channel response (all elements
// terminated) on the problem's grid. It returns an error where Solve
// does for the scene.
func (p *Problem) Baseline() ([]complex128, error) {
	m, err := p.model()
	if err != nil {
		return nil, err
	}
	h := make([]complex128, p.Grid.NumUsed())
	m.Environment(h, 0)
	return h, nil
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
// and evaluates what the projection actually achieves. The environment
// is traced once. An invalid grid or environment, or geometry that is
// not finite, is an error, returned before anything is traced.
func Solve(p *Problem, target []complex128) (*Solution, error) {
	if len(target) != p.Grid.NumUsed() {
		return nil, fmt.Errorf("inverse: target has %d entries for %d subcarriers", len(target), p.Grid.NumUsed())
	}
	if p.Array.N() == 0 {
		return nil, fmt.Errorf("inverse: empty array")
	}
	m, err := p.model()
	if err != nil {
		return nil, err
	}
	env := make([]complex128, len(target))
	m.Environment(env, 0)

	// delta = H* − H_env is what the element paths must synthesize.
	delta := make(cmat.Vector, len(target))
	var baseRes float64
	for k := range target {
		delta[k] = target[k] - env[k]
		baseRes += real(delta[k])*real(delta[k]) + imag(delta[k])*imag(delta[k])
	}
	baseRes = math.Sqrt(baseRes)

	// Continuous step. Over a 20 MHz band the element responses B_i(f)
	// are nearly frequency-flat, so the basis is close to rank one and
	// plain least squares returns huge, non-physical coefficients. The
	// minimal-norm solution via a truncated pseudo-inverse stays bounded.
	basis := cmat.New(len(target), p.Array.N())
	for i := range p.Array.Elements {
		for k, b := range m.Unit(i) {
			basis.Set(k, i, b)
		}
	}
	x := cmat.PseudoInverse(basis, 1e-6).MulVec(delta)

	cfg := ProjectToConfig(p.Array, x, rfphys.Wavelength(p.Grid.CenterHz))
	// Discrete refinement on the forward model (no measurements needed:
	// the model is known, so searching it is free). Small spaces are
	// searched exhaustively; larger ones by coordinate descent from the
	// projected warm start. Each candidate is scored on the narrowband
	// table −delta + Σ_i B_i·φ_i,s, one vector add per element.
	for k := range env {
		env[k] = -delta[k]
	}
	h := make([]complex128, len(target))
	cfg = refineDiscrete(m.Narrowband(env), cfg, h)

	// Evaluate the achieved channel under the projected configuration.
	m.Sum(h, cfg, nil, 0)
	var achRes float64
	for k := range target {
		d := h[k] - target[k]
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

// residual2 returns ‖·‖² of the narrowband table's sum under cfg, using h
// as scratch: the squared model residual ‖B·x(cfg) − delta‖².
func residual2(nb *channel.Model, h []complex128, cfg element.Config) float64 {
	nb.Sum(h, cfg, nil, 0)
	var sum float64
	for _, v := range h {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum
}

// refineDiscrete improves a projected configuration against the
// narrowband table nb, with h (one entry per subcarrier) as scratch:
// exhaustively for configuration spaces up to 4096, by coordinate descent
// otherwise.
func refineDiscrete(nb *channel.Model, warm element.Config, h []complex128) element.Config {
	arr := nb.Array()
	best := warm.Clone()
	bestRes := residual2(nb, h, best)

	if arr.NumConfigs() <= 4096 {
		arr.EachConfig(func(_ int, c element.Config) bool {
			if r := residual2(nb, h, c); r < bestRes {
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
				if r := residual2(nb, h, cand); r < bestRes {
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
			if d := cmplx.Abs(e.Phasor(si, lambdaM) - x[i]); d < bestDist {
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
