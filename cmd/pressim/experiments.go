package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"press/internal/experiments"
)

// runOne dispatches one experiment by name.
func runOne(name string, opt options, out io.Writer) error {
	switch name {
	case "los":
		o := experiments.DefaultLoS()
		if opt.seed != 0 {
			o.Seed = opt.seed
		}
		res, err := experiments.RunLoS(o)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "fig4":
		o := experiments.DefaultFig4()
		o.Trials = opt.trials
		o.Placements = opt.placements
		if opt.seed != 0 {
			o.BaseSeed = opt.seed
		}
		res, err := experiments.RunFig4(o)
		if err != nil {
			return err
		}
		res.Print(out)
		return writeCSV(opt, "fig4", res.WriteCSV)

	case "fig5":
		o := experiments.DefaultFig5()
		o.Trials = opt.trials
		if opt.seed != 0 {
			o.Seed = opt.seed
		}
		res, err := experiments.RunFig5(o)
		if err != nil {
			return err
		}
		res.Print(out)
		return writeCSV(opt, "fig5", res.WriteCSV)

	case "fig6":
		o := experiments.DefaultFig6()
		o.Trials = opt.trials
		if opt.seed != 0 {
			o.Seed = opt.seed
		}
		res, err := experiments.RunFig6(o)
		if err != nil {
			return err
		}
		res.Print(out)
		return writeCSV(opt, "fig6", res.WriteCSV)

	case "fig7":
		o := experiments.DefaultFig7()
		if opt.seed != 0 {
			o.Seed = opt.seed
		}
		res, err := experiments.RunFig7(o)
		if err != nil {
			return err
		}
		res.Print(out)
		return writeCSV(opt, "fig7", res.WriteCSV)

	case "fig8":
		o := experiments.DefaultFig8()
		o.Snapshots = opt.snapshots
		o.Repetitions = opt.reps
		if opt.seed != 0 {
			o.Seed = opt.seed
		}
		res, err := experiments.RunFig8(o)
		if err != nil {
			return err
		}
		res.Print(out)
		return writeCSV(opt, "fig8", res.WriteCSV)

	case "coherence":
		experiments.RunCoherence().Print(out)
		return nil

	case "demo":
		o := experiments.DefaultDemo()
		if opt.seed != 0 {
			o.Seed = opt.seed
		}
		o.Loops = opt.loops
		o.SpeedMph = opt.speed
		o.SlowPhase = opt.slowPhase
		o.Budget = opt.budget
		res, err := experiments.RunDemo(o)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "controlplane":
		seed := opt.seed
		if seed == 0 {
			seed = 442
		}
		res, err := experiments.RunControlPlaneComparison(seed)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "staleness":
		seed := opt.seed
		if seed == 0 {
			seed = 442
		}
		res, err := experiments.RunStaleness(seed, nil)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "ablation":
		seed := opt.seed
		if seed == 0 {
			seed = 442
		}
		a1, err := experiments.RunPhaseAblation(seed, nil)
		if err != nil {
			return err
		}
		a1.Print(out)
		fmt.Fprintln(out)
		a2, err := experiments.RunElementAblation(seed, nil)
		if err != nil {
			return err
		}
		a2.Print(out)
		fmt.Fprintln(out)
		a3, err := experiments.RunSearchAblation(seed, opt.budget)
		if err != nil {
			return err
		}
		a3.Print(out)
		fmt.Fprintln(out)
		a4, err := experiments.RunContinuousAblation(seed, opt.budget)
		if err != nil {
			return err
		}
		a4.Print(out)
		return nil

	case "scaling":
		seed := opt.seed
		if seed == 0 {
			seed = 822
		}
		res, err := experiments.RunMIMOScaling(seed, nil, opt.snapshots)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "arrayscale":
		seed := opt.seed
		if seed == 0 {
			seed = 442
		}
		res, err := experiments.RunArrayScaling(seed, nil, opt.budget*2)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "faults":
		seed := opt.seed
		if seed == 0 {
			seed = 442
		}
		res, err := experiments.RunFaultTolerance(seed)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "concurrent":
		o := experiments.DefaultConcurrent()
		o.Seed = opt.seed
		o.Sessions = opt.sessions
		o.Budget = opt.budget
		if rec := experiments.CurrentScope().Flight(); rec != nil {
			// The process run log sits at <flight-dir>/<run-id>; the rooms
			// record beside it under the same root.
			o.FlightRoot = filepath.Dir(rec.Dir())
		}
		res, err := experiments.RunConcurrent(o)
		if res != nil {
			res.Print(out)
		}
		return err

	case "session":
		seed := opt.seed
		if seed == 0 {
			seed = 442
		}
		res, err := experiments.RunSession("session", seed, opt.budget, experiments.CurrentScope())
		if err != nil {
			return err
		}
		res.Print(out)
		return nil

	case "record":
		if opt.recordPath == "" {
			return fmt.Errorf("record needs -record FILE")
		}
		seed := opt.seed
		if seed == 0 {
			seed = 442
		}
		rec, err := experiments.RecordSweepRecord(seed, opt.trials)
		if err != nil {
			return err
		}
		f, err := os.Create(opt.recordPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Save(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %d trials of the placement sweep to %s\n", opt.trials, opt.recordPath)
		if err := writeCSV(opt, "record", rec.WriteCSV); err != nil {
			return err
		}
		return f.Close()

	case "replay":
		if opt.recordPath == "" {
			return fmt.Errorf("replay needs -record FILE")
		}
		f, err := os.Open(opt.recordPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return experiments.ReplayAnalysis(f, out)

	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
