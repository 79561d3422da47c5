// Package core ties the PRESS system together: a Space is one
// PRESS-instrumented smart space — a radio environment, the wall-embedded
// element array controlled as a unit, and the wireless links operating
// inside it. The Space owns the currently applied configuration and runs
// the §2 control loop: measure links, search the configuration space
// under a coherence budget, actuate.
//
// The repository-root press package re-exports this as the public API.
package core

import (
	"fmt"
	"sort"
	"time"

	"press/internal/control"
	"press/internal/element"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
)

// Space is a PRESS-instrumented smart space.
type Space struct {
	Env   *propagation.Environment
	Array *element.Array

	seed    uint64
	nextSub uint64
	links   map[string]*radio.Link
	order   []string

	applied element.Config
}

// NewSpace builds a space over an environment and element array. The seed
// makes all link measurement noise reproducible.
func NewSpace(env *propagation.Environment, arr *element.Array, seed uint64) (*Space, error) {
	if env == nil || arr == nil {
		return nil, fmt.Errorf("core: nil environment or array")
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	applied, ok := arr.AllTerminated()
	if !ok {
		applied = make(element.Config, arr.N())
	}
	return &Space{
		Env: env, Array: arr, seed: seed,
		links:   make(map[string]*radio.Link),
		applied: applied,
	}, nil
}

// AddLink registers a named link through this space's environment and
// array. Link names must be unique.
func (s *Space) AddLink(name string, tx, rx *radio.Radio, grid ofdm.Grid) (*radio.Link, error) {
	if _, dup := s.links[name]; dup {
		return nil, fmt.Errorf("core: duplicate link %q", name)
	}
	s.nextSub++
	link, err := radio.NewLink(s.Env, tx, rx, grid, s.Array, s.seed+s.nextSub*0x9e37)
	if err != nil {
		return nil, err
	}
	s.links[name] = link
	s.order = append(s.order, name)
	return link, nil
}

// Link returns a registered link, or nil.
func (s *Space) Link(name string) *radio.Link { return s.links[name] }

// LinkNames returns the registered link names in insertion order.
func (s *Space) LinkNames() []string { return append([]string(nil), s.order...) }

// Applied returns the currently applied array configuration.
func (s *Space) Applied() element.Config { return s.applied.Clone() }

// Apply validates and applies a configuration to the array.
func (s *Space) Apply(cfg element.Config) error {
	if err := s.Array.Validate(cfg); err != nil {
		return err
	}
	s.applied = cfg.Clone()
	return nil
}

// Measure measures the named link's CSI under the applied configuration
// at time t.
func (s *Space) Measure(name string, t time.Duration) (*ofdm.CSI, error) {
	link, ok := s.links[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown link %q", name)
	}
	return link.MeasureCSI(s.applied, t.Seconds())
}

// Goal binds one link to an objective with a weight, for joint
// optimization across the space's current communication pattern — the §2
// trade-off between per-link agility and joint optimality.
type Goal struct {
	Link      string
	Objective control.Objective
	// Weight defaults to 1.
	Weight float64
}

// OptimizeOptions configures an optimization run.
type OptimizeOptions struct {
	// Searcher defaults to Exhaustive.
	Searcher control.Searcher
	// Budget bounds measurements per link evaluation round (0 =
	// unlimited); use control.CoherenceBudget to derive it from mobility.
	Budget int
	// Timing is the per-measurement cost model.
	Timing radio.Timing
	// SkipApply leaves the space's applied configuration unchanged;
	// by default Optimize applies the winner on success.
	SkipApply bool
}

// Outcome reports an optimization run.
type Outcome struct {
	Best      element.Config
	BestScore float64
	// PerLink holds each goal's individual score under Best.
	PerLink     map[string]float64
	Evaluations int
}

// Optimize searches the array configuration space for the weighted-sum
// optimum of the goals and (by default) applies the winner. Multiple
// goals on different links realize the paper's joint optimization; a
// single goal is the per-link case.
func (s *Space) Optimize(goals []Goal, opts OptimizeOptions) (*Outcome, error) {
	if len(goals) == 0 {
		return nil, fmt.Errorf("core: no goals")
	}
	ev := &control.Evaluator{Goals: make([]control.Goal, len(goals)), Timing: opts.Timing}
	for i, g := range goals {
		link, ok := s.links[g.Link]
		if !ok {
			return nil, fmt.Errorf("core: unknown link %q", g.Link)
		}
		if g.Objective == nil {
			return nil, fmt.Errorf("core: goal on %q has no objective", g.Link)
		}
		ev.Goals[i] = control.Goal{Link: link, Objective: g.Objective, Weight: g.Weight}
	}

	searcher := opts.Searcher
	if searcher == nil {
		searcher = control.Exhaustive{}
	}
	res, err := searcher.Search(s.Array, ev.Eval, opts.Budget)
	if err != nil && res == nil {
		return nil, err
	}

	out := &Outcome{
		Best:        res.Best,
		BestScore:   res.BestScore,
		Evaluations: res.Evaluations,
		PerLink:     make(map[string]float64, len(goals)),
	}
	for i, g := range ev.Goals {
		csi, merr := g.Link.MeasureCSI(res.Best, ev.Elapsed().Seconds())
		if merr != nil {
			return nil, merr
		}
		out.PerLink[goals[i].Link] = g.Objective.Score(csi)
	}
	if !opts.SkipApply {
		if aerr := s.Apply(res.Best); aerr != nil {
			return nil, aerr
		}
	}
	// Surface a budget exhaustion as a non-nil error alongside the
	// outcome so callers can distinguish "optimal" from "best effort".
	return out, err
}

// Summary renders a quick textual status of the space for CLIs.
func (s *Space) Summary() string {
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	return fmt.Sprintf("space: %d elements (%d configs), %d links %v, applied %s",
		s.Array.N(), s.Array.NumConfigs(), len(names), names, s.Array.String(s.applied))
}
