// Command presssweep runs parameter sweeps over the PRESS design space
// that complement the paper-figure harnesses in pressim:
//
//	presssweep convergence   # best-so-far score vs measurements, per searcher
//	presssweep budget        # achievable gain vs endpoint speed (coherence budget)
//	presssweep density       # gain vs element count × antenna type
//
// Output is CSV on stdout, ready for plotting.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"time"

	"press"
	"press/internal/control"
	"press/internal/experiments"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/radio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "presssweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: presssweep convergence|budget|density [flags]")
	}
	switch args[0] {
	case "convergence":
		return runConvergence(args[1:])
	case "budget":
		return runBudget(args[1:])
	case "density":
		return runDensity(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// startTelemetry brings up the parsed telemetry flags and installs the
// root scope as the ambient experiments scope; the sweep scenario names
// the telemetry session on exported batches. The returned finish func
// tears both down and emits the snapshot ("-" goes to stdout, after the
// CSV).
func startTelemetry(tele *scope.CLI, scenario string, seed uint64) (sc *scope.Scope, finish func() error, err error) {
	sc, err = tele.Start(os.Stderr, scenario)
	if err != nil {
		return nil, nil, err
	}
	experiments.SetScope(sc)
	if rec := sc.Flight(); rec != nil {
		rec.RecordManifest(flight.NewManifest("presssweep", scenario, seed))
	}
	return sc, func() error {
		experiments.SetScope(nil)
		return tele.Finish(os.Stdout)
	}, nil
}

// buildLink constructs the calibrated NLoS scenario with n elements.
func buildLink(seed uint64, n int) (*radio.Link, error) {
	scen := experiments.DefaultSISO(seed)
	scen.NumElements = n
	return scen.Build()
}

func runConvergence(args []string) error {
	fs := flag.NewFlagSet("convergence", flag.ContinueOnError)
	seed := fs.Uint64("seed", 442, "scenario seed")
	elements := fs.Int("elements", 8, "array size (space 4^n)")
	budget := fs.Int("budget", 300, "measurement budget per searcher")
	var tele scope.CLI
	tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, finish, err := startTelemetry(&tele, "convergence", *seed)
	if err != nil {
		return err
	}
	sp := obs.StartSpan(sc.Registry(), "sweep/convergence")

	searchers := []control.Searcher{
		control.Random{Rng: rand.New(rand.NewPCG(*seed, 1)), Samples: *budget},
		control.Greedy{Rng: rand.New(rand.NewPCG(*seed, 2)), Restarts: 16},
		control.HillClimb{Rng: rand.New(rand.NewPCG(*seed, 3)), Restarts: 8, StepsPerRestart: *budget},
		control.Anneal{Rng: rand.New(rand.NewPCG(*seed, 4)), Steps: *budget},
		control.Genetic{Rng: rand.New(rand.NewPCG(*seed, 5)), Pop: 16, Generations: *budget / 16},
	}
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	if err := w.Write([]string{"algorithm", "evaluation", "best_so_far_db"}); err != nil {
		return err
	}
	for _, s := range searchers {
		link, err := buildLink(*seed, *elements)
		if err != nil {
			return err
		}
		ev := &control.Evaluator{Goals: []control.Goal{{Link: link, Objective: control.MaxMinSNR{}}}}
		res, err := control.InstrumentScope(s, sc).Search(link.Array, ev.Eval, *budget)
		if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
			return err
		}
		for i, best := range res.Trace {
			if err := w.Write([]string{s.Name(), strconv.Itoa(i + 1),
				strconv.FormatFloat(best, 'f', 3, 64)}); err != nil {
				return err
			}
		}
	}
	sp.End()
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return finish()
}

func runBudget(args []string) error {
	fs := flag.NewFlagSet("budget", flag.ContinueOnError)
	seed := fs.Uint64("seed", 442, "scenario seed")
	perMeas := fs.Duration("per-measurement", 2*time.Millisecond, "measurement cost")
	var tele scope.CLI
	tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, finish, err := startTelemetry(&tele, "budget", *seed)
	if err != nil {
		return err
	}
	sp := obs.StartSpan(sc.Registry(), "sweep/budget")
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	if err := w.Write([]string{"speed_mph", "budget", "baseline_db", "best_db", "gain_db"}); err != nil {
		return err
	}
	timing := radio.Timing{PerMeasurement: *perMeas}
	for _, mph := range []float64{0.25, 0.5, 1, 2, 4, 6} {
		link, err := buildLink(*seed, 3)
		if err != nil {
			return err
		}
		budget := press.CoherenceBudgetAtSpeed(mph, press.DefaultCarrierHz, timing)
		ev := &control.Evaluator{Goals: []control.Goal{{Link: link, Objective: control.MaxMinSNR{}}}, Timing: timing}
		base, ok := link.Array.AllTerminated()
		if !ok {
			base = make([]int, link.Array.N())
		}
		// The baseline is scored under the search_eval root, like the
		// search's own evaluations. It also runs the link's lazy path
		// trace; outside any root, that leaf time would count against
		// no wall clock and push hotspot coverage past 100 %.
		pc := sc.Prof()
		esp := pc.Start(prof.PhaseSearch)
		baseline, err := ev.Eval(base)
		if err == nil {
			pc.Add(prof.PhaseSearch, prof.AuxConfigsScored, 1)
		}
		esp.End()
		if err != nil {
			return err
		}
		res, err := control.InstrumentScope(
			control.Greedy{Rng: rand.New(rand.NewPCG(*seed, 9)), Restarts: 4}, sc).
			Search(link.Array, ev.Eval, budget)
		if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
			return err
		}
		if err := w.Write([]string{
			strconv.FormatFloat(mph, 'f', 2, 64),
			strconv.Itoa(budget),
			strconv.FormatFloat(baseline, 'f', 2, 64),
			strconv.FormatFloat(res.BestScore, 'f', 2, 64),
			strconv.FormatFloat(res.BestScore-baseline, 'f', 2, 64),
		}); err != nil {
			return err
		}
	}
	sp.End()
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return finish()
}

func runDensity(args []string) error {
	fs := flag.NewFlagSet("density", flag.ContinueOnError)
	seed := fs.Uint64("seed", 442, "scenario seed")
	maxN := fs.Int("max-elements", 6, "largest array size")
	var tele scope.CLI
	tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, finish, err := startTelemetry(&tele, "density", *seed)
	if err != nil {
		return err
	}
	sp := obs.StartSpan(sc.Registry(), "sweep/density")
	res, err := experiments.RunElementAblation(*seed, countsUpTo(*maxN))
	if err != nil {
		return err
	}
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	if err := w.Write([]string{"elements", "pattern", "baseline_db", "best_db", "gain_db"}); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := w.Write([]string{
			strconv.Itoa(row.Elements), row.Pattern,
			strconv.FormatFloat(row.BaselineDB, 'f', 2, 64),
			strconv.FormatFloat(row.BestDB, 'f', 2, 64),
			strconv.FormatFloat(row.GainDB, 'f', 2, 64),
		}); err != nil {
			return err
		}
	}
	sp.End()
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return finish()
}

func countsUpTo(n int) []int {
	out := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, i)
	}
	return out
}
