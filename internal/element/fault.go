package element

import (
	"fmt"

	"press/internal/propagation"
)

// This file models element failures — the §2 operational challenge of
// how to "deploy, power, and maintain the PRESS array". A wall element
// that loses power or whose switch jams keeps affecting the channel; the
// question is whether the closed measurement loop routes around it.

// FaultKind classifies element failures.
type FaultKind int

// Fault kinds.
const (
	// StuckAt jams the switch in one state regardless of commands — a
	// failed switch driver.
	StuckAt FaultKind = iota
	// Dead removes the element's reflection entirely — a lost antenna
	// connection (electrically close to a terminated state).
	Dead
)

// Fault is one element's failure mode.
type Fault struct {
	Kind FaultKind
	// State is the jammed state index for StuckAt.
	State int
}

// Faults maps element index → failure. Elements absent from the map are
// healthy.
type Faults map[int]Fault

// Validate checks the fault plan against the array.
func (a *Array) ValidateFaults(f Faults) error {
	for idx, fault := range f {
		if idx < 0 || idx >= a.N() {
			return fmt.Errorf("element: fault on element %d of %d", idx, a.N())
		}
		if fault.Kind == StuckAt {
			if fault.State < 0 || fault.State >= a.Elements[idx].NumStates() {
				return fmt.Errorf("element: element %d stuck at invalid state %d", idx, fault.State)
			}
		}
	}
	return nil
}

// PathsWithFaults is Paths under a failure plan: commands to stuck
// elements are silently overridden by the jammed state, dead elements
// contribute nothing. The controller does not see the overrides except
// through the channel itself — exactly the real-world situation. Like
// Paths, it is a test reference.
func (a *Array) PathsWithFaults(env *propagation.Environment, tx, rx propagation.Node,
	c Config, faults Faults, lambdaM float64) []propagation.Path {

	if err := a.Validate(c); err != nil {
		panic(err)
	}
	if err := a.ValidateFaults(faults); err != nil {
		panic(err)
	}
	var paths []propagation.Path
	for i, e := range a.Elements {
		si := c[i]
		if fault, broken := faults[i]; broken {
			switch fault.Kind {
			case StuckAt:
				si = fault.State
			case Dead:
				continue
			}
		}
		refl, extra := e.Reflection(si, lambdaM)
		if p, ok := propagation.BistaticPath(env, tx, rx, e.Pos, e.Pattern, refl, extra, lambdaM); ok {
			paths = append(paths, p)
		}
	}
	return paths
}
