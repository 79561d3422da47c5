package experiments

import (
	"fmt"
	"io"
)

// Printer is an experiment's printable result. A result that also has a
// WriteCSV(io.Writer) error method carries raw series, which pressim's
// -csv writes to <name>.csv.
type Printer interface {
	Print(w io.Writer)
}

// Experiment is one entry of Registry. An entry is built from a RunSpec
// alone, and a flight-log manifest records the RunSpec, so every entry
// replays.
type Experiment struct {
	Name string
	// inAll places the entry in -exp all, in Registry order.
	inAll bool
	// seed stands in for a zero RunSpec.Seed.
	seed uint64
	run  func(RunSpec) (Printer, error)
}

// Run builds the experiment from s, with the entry's default seed in
// place of a zero s.Seed, and runs it.
func (e Experiment) Run(s RunSpec) (Printer, error) {
	if s.Seed == 0 {
		s.Seed = e.seed
	}
	return e.run(s)
}

// placementE seeds the calibrated §3.2 NLoS testbed: placement (e) of
// the Figure 4 run, DefaultFig4's BaseSeed 438 + 4.
const placementE = 442

// sessionName is the experiment that one room of the concurrent
// experiment records in its manifest, so replay re-runs that room alone.
const sessionName = "session"

// Registry is the one list of experiments that run from a RunSpec:
// pressim's -exp, the expansion of -exp all and RunSpec.Run (and so
// `pressctl replay`) all read it. To add an experiment, add an entry.
var Registry = []Experiment{
	{Name: "los", inAll: true, seed: DefaultLoS().Seed, run: func(s RunSpec) (Printer, error) {
		o := DefaultLoS()
		o.Seed = s.Seed
		return RunLoS(o)
	}},
	{Name: "fig4", inAll: true, seed: DefaultFig4().BaseSeed, run: func(s RunSpec) (Printer, error) {
		o := DefaultFig4()
		o.Trials, o.Placements, o.BaseSeed = s.Trials, s.Placements, s.Seed
		return RunFig4(o)
	}},
	{Name: "fig5", inAll: true, seed: DefaultFig5().Seed, run: func(s RunSpec) (Printer, error) {
		o := DefaultFig5()
		o.Trials, o.Seed = s.Trials, s.Seed
		return RunFig5(o)
	}},
	{Name: "fig6", inAll: true, seed: DefaultFig6().Seed, run: func(s RunSpec) (Printer, error) {
		o := DefaultFig6()
		o.Trials, o.Seed = s.Trials, s.Seed
		return RunFig6(o)
	}},
	{Name: "fig7", inAll: true, seed: DefaultFig7().Seed, run: func(s RunSpec) (Printer, error) {
		o := DefaultFig7()
		o.Seed = s.Seed
		return RunFig7(o)
	}},
	{Name: "fig8", inAll: true, seed: DefaultFig8().Seed, run: func(s RunSpec) (Printer, error) {
		o := DefaultFig8()
		o.Snapshots, o.Repetitions, o.Seed = s.Snapshots, s.Reps, s.Seed
		return RunFig8(o)
	}},
	{Name: "coherence", inAll: true, run: func(RunSpec) (Printer, error) {
		return RunCoherence(), nil
	}},
	{Name: "controlplane", inAll: true, seed: placementE, run: func(s RunSpec) (Printer, error) {
		return RunControlPlaneComparison(s.Seed)
	}},
	{Name: "staleness", inAll: true, seed: placementE, run: func(s RunSpec) (Printer, error) {
		return RunStaleness(s.Seed, nil)
	}},
	// MIMO scaling runs on Figure 8's MIMO testbed.
	{Name: "scaling", inAll: true, seed: DefaultFig8().Seed, run: func(s RunSpec) (Printer, error) {
		return RunMIMOScaling(s.Seed, nil, s.Snapshots)
	}},
	{Name: "arrayscale", inAll: true, seed: placementE, run: func(s RunSpec) (Printer, error) {
		return RunArrayScaling(s.Seed, nil, s.Budget*2)
	}},
	{Name: "faults", inAll: true, seed: placementE, run: func(s RunSpec) (Printer, error) {
		return RunFaultTolerance(s.Seed)
	}},
	{Name: "ablation", inAll: true, seed: placementE, run: runAblation},
	// The demo's searched configurations replay exactly, but loop latency
	// is wall-clock-real: replayed KindLoop frames carry this host's
	// timings, which is what `pressctl rundiff` compares across runs.
	{Name: "demo", seed: DefaultDemo().Seed, run: func(s RunSpec) (Printer, error) {
		o := DefaultDemo()
		o.Seed, o.Loops, o.SpeedMph, o.SlowPhase, o.Budget = s.Seed, s.Loops, s.Speed, s.SlowPhase, s.Budget
		return runDemo(o)
	}},
	// One room of the concurrent experiment, observed through the
	// ambient scope, which adopts the room's flight log on replay.
	{Name: sessionName, seed: placementE, run: func(s RunSpec) (Printer, error) {
		return runSession(sessionName, s.Seed, s.Budget, CurrentScope())
	}},
}

// runAblation runs ablations A1–A4 on the calibrated testbed.
func runAblation(s RunSpec) (Printer, error) {
	a1, err := RunPhaseAblation(s.Seed, nil)
	if err != nil {
		return nil, err
	}
	a2, err := RunElementAblation(s.Seed, nil)
	if err != nil {
		return nil, err
	}
	a3, err := RunSearchAblation(s.Seed, s.Budget)
	if err != nil {
		return nil, err
	}
	a4, err := RunContinuousAblation(s.Seed, s.Budget)
	if err != nil {
		return nil, err
	}
	return printers{a1, a2, a3, a4}, nil
}

// printers prints each result in turn, a blank line apart.
type printers []Printer

func (ps printers) Print(w io.Writer) {
	for i, p := range ps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		p.Print(w)
	}
}

// lookup returns the Registry entry called name.
func lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
