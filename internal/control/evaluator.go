package control

import (
	"fmt"
	"time"

	"press/internal/element"
	"press/internal/radio"
	"press/internal/rfphys"
)

// Goal binds one link to the objective it is scored by, with a weight,
// for joint optimization across the links sharing an array — the §2
// trade-off between per-link agility and joint optimality.
type Goal struct {
	Link      *radio.Link
	Objective Objective
	// Weight scales the goal's score; 0 means 1.
	Weight float64
}

// Evaluator turns weighted goals into the EvalFunc the searchers consume.
// One goal of weight 1 is the per-link case; several goals sharing the
// array are a joint optimization, such as §3.2.2's spectrum split (one
// link's lower half band against another's upper half). Each evaluation
// advances a simulated clock by the timing model, so that searches
// experience the same channel drift the paper's testbed does.
type Evaluator struct {
	Goals  []Goal
	Timing radio.Timing
	// Actuate, when set, applies each candidate before it is measured
	// (over a control plane, say) and returns the configuration that was
	// really applied, which is the one measured.
	Actuate func(element.Config) (element.Config, error)

	now time.Duration
}

// Eval actuates cfg (when Actuate is set), measures every goal's link
// at the current simulated time, and returns the weighted sum of their
// scores. The sum starts from the first goal's term, so one goal of
// weight 1 returns its objective's score bit for bit. Only a successful
// evaluation advances the clock.
func (e *Evaluator) Eval(cfg element.Config) (float64, error) {
	if e.Actuate != nil {
		var err error
		if cfg, err = e.Actuate(cfg); err != nil {
			return 0, err
		}
	}
	var sum float64
	for i, g := range e.Goals {
		csi, err := g.Link.MeasureCSI(cfg, e.now.Seconds())
		if err != nil {
			return 0, fmt.Errorf("control: goal %d: %w", i, err)
		}
		term := g.Objective.Score(csi)
		if g.Weight != 0 {
			term *= g.Weight
		}
		if i == 0 {
			sum = term
		} else {
			sum += term
		}
	}
	e.now += e.Timing.PerMeasurement + e.Timing.SwitchLatency
	return sum, nil
}

// Elapsed returns the simulated wall-clock the evaluator has consumed.
func (e *Evaluator) Elapsed() time.Duration { return e.now }

// ContinuousLinkEvaluator is the single-goal Evaluator for
// continuously-variable phase hardware (§4.1): it measures the link
// under arbitrary element phases.
type ContinuousLinkEvaluator struct {
	Link      *radio.Link
	Objective Objective
	Timing    radio.Timing

	now time.Duration
}

// Eval measures one continuous configuration and scores it.
func (e *ContinuousLinkEvaluator) Eval(phases element.ContinuousConfig) (float64, error) {
	csi, err := e.Link.MeasureCSIContinuous(phases, e.now.Seconds())
	if err != nil {
		return 0, err
	}
	e.now += e.Timing.PerMeasurement + e.Timing.SwitchLatency
	return e.Objective.Score(csi), nil
}

// CoherenceBudget converts a channel coherence time and a per-measurement
// cost into the number of configurations a searcher may try before the
// channel has changed under it — the hard real-time constraint of §2.
// An infinite coherence time (static room) returns 0, meaning unlimited.
func CoherenceBudget(coherence time.Duration, timing radio.Timing) int {
	per := timing.PerMeasurement + timing.SwitchLatency
	if per <= 0 {
		return 0
	}
	if coherence <= 0 {
		return 1 // channel changes faster than we can ever measure
	}
	n := int(coherence / per)
	if n < 1 {
		return 1
	}
	return n
}

// CoherenceTimeAtSpeed returns the channel coherence time — the per-loop
// deadline of the §2 control problem — for an endpoint moving at the
// given speed (mph, the paper's unit) at carrier frequency fcHz. A zero
// return means the channel is effectively static: no deadline.
func CoherenceTimeAtSpeed(speedMph, fcHz float64) time.Duration {
	lambda := rfphys.Wavelength(fcHz)
	fd := rfphys.DopplerShiftHz(rfphys.MphToMps(speedMph), lambda)
	tc := rfphys.CoherenceTime(fd)
	if tc > 1e6 { // effectively static
		return 0
	}
	return time.Duration(tc * float64(time.Second))
}

// CoherenceBudgetAtSpeed is CoherenceBudget for an endpoint moving at the
// given speed (mph, the paper's unit) at carrier frequency fcHz.
func CoherenceBudgetAtSpeed(speedMph, fcHz float64, timing radio.Timing) int {
	tc := CoherenceTimeAtSpeed(speedMph, fcHz)
	if tc == 0 {
		return 0 // effectively static: unlimited
	}
	return CoherenceBudget(tc, timing)
}
