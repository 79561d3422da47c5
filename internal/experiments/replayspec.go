package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"press/internal/obs/flight"
)

// RunSpec captures a pressim invocation precisely enough to re-execute
// it: the experiment list and every knob that feeds a harness RNG or
// iteration count. It round-trips through flight-log manifest params,
// which is how `pressctl replay` reconstructs a recorded run.
type RunSpec struct {
	// Exp is the comma-separated list of Registry names, or "all".
	Exp string
	// Seed of 0 means each harness's calibrated default — recorded
	// verbatim so replay makes the same choice.
	Seed       uint64
	Trials     int
	Placements int
	Snapshots  int
	Reps       int
	Budget     int
	// Loops, Speed, and SlowPhase parameterize the deadline-tracing demo
	// (exp=demo). They are recorded in every manifest going forward but
	// tolerated as absent when replaying runs recorded before the demo
	// existed.
	Loops     int
	Speed     float64
	SlowPhase time.Duration
}

// Experiments returns the expanded experiment list: for "all", the
// Registry entries that -exp all runs, in table order.
func (s RunSpec) Experiments() []string {
	if s.Exp == "all" {
		var names []string
		for _, e := range Registry {
			if e.inAll {
				names = append(names, e.Name)
			}
		}
		return names
	}
	parts := strings.Split(s.Exp, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Params renders the spec as manifest parameters.
func (s RunSpec) Params() []flight.Param {
	itoa := strconv.Itoa
	return []flight.Param{
		{Key: "exp", Value: s.Exp},
		{Key: "trials", Value: itoa(s.Trials)},
		{Key: "placements", Value: itoa(s.Placements)},
		{Key: "snapshots", Value: itoa(s.Snapshots)},
		{Key: "reps", Value: itoa(s.Reps)},
		{Key: "budget", Value: itoa(s.Budget)},
		{Key: "loops", Value: itoa(s.Loops)},
		{Key: "speed", Value: strconv.FormatFloat(s.Speed, 'g', -1, 64)},
		{Key: "slow_phase", Value: s.SlowPhase.String()},
	}
}

// SpecFromManifest rebuilds the spec a recorded pressim run was started
// with.
func SpecFromManifest(m *flight.Manifest) (RunSpec, error) {
	if m.Binary != "pressim" {
		return RunSpec{}, fmt.Errorf("experiments: manifest binary %q is not pressim", m.Binary)
	}
	s := RunSpec{Seed: m.Seed}
	var ok bool
	if s.Exp, ok = m.Param("exp"); !ok {
		return RunSpec{}, fmt.Errorf("experiments: manifest missing exp param")
	}
	geti := func(key string, dst *int) error {
		v, ok := m.Param(key)
		if !ok {
			return fmt.Errorf("experiments: manifest missing %s param", key)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("experiments: bad %s param %q", key, v)
		}
		*dst = n
		return nil
	}
	for key, dst := range map[string]*int{
		"trials": &s.Trials, "placements": &s.Placements,
		"snapshots": &s.Snapshots, "reps": &s.Reps, "budget": &s.Budget,
	} {
		if err := geti(key, dst); err != nil {
			return RunSpec{}, err
		}
	}
	// Demo params are optional: manifests recorded before the demo
	// experiment existed simply lack them.
	if _, ok := m.Param("loops"); ok {
		if err := geti("loops", &s.Loops); err != nil {
			return RunSpec{}, err
		}
	}
	if v, ok := m.Param("speed"); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return RunSpec{}, fmt.Errorf("experiments: bad speed param %q", v)
		}
		s.Speed = f
	}
	if v, ok := m.Param("slow_phase"); ok {
		d, err := time.ParseDuration(v)
		if err != nil {
			return RunSpec{}, fmt.Errorf("experiments: bad slow_phase param %q", v)
		}
		s.SlowPhase = d
	}
	return s, nil
}

// Run re-executes every experiment in the spec through Registry,
// discarding printed results: the point is the measurement side effects,
// which the ambient telemetry scope (SetScope) captures. A name outside
// Registry, such as pressim's concurrent, record or replay, is an error.
func (s RunSpec) Run() error {
	for _, name := range s.Experiments() {
		e, ok := lookup(name)
		if !ok {
			return fmt.Errorf("%s: experiments: unknown or non-replayable experiment %q", name, name)
		}
		if _, err := e.Run(s); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
