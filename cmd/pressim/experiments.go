package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"press/internal/experiments"
)

// local holds the experiments that need inputs a RunSpec does not carry:
// the -record path, -sessions and the flight root. They run under pressim
// only and do not replay. Every other name runs from experiments.Registry.
var local = []struct {
	name string
	run  func(name string, opt options, out io.Writer) error
}{
	{"concurrent", runConcurrent},
	{"record", runRecord},
	{"replay", runReplay},
}

// expUsage is the -exp help: every experiment name, in Registry order,
// then the pressim-only ones.
func expUsage() string {
	var names []string
	for _, e := range experiments.Registry {
		names = append(names, e.Name)
	}
	for _, l := range local {
		names = append(names, l.name)
	}
	return "experiment, or a comma-separated list: " + strings.Join(names, "|") + "|all"
}

// runExperiment runs one experiment by name and prints its result;
// under -csv a result with raw series is also written to <name>.csv.
func runExperiment(name string, opt options, out io.Writer) error {
	for _, l := range local {
		if l.name == name {
			return l.run(name, opt, out)
		}
	}
	for _, e := range experiments.Registry {
		if e.Name != name {
			continue
		}
		res, err := e.Run(opt.spec())
		if err != nil {
			return err
		}
		res.Print(out)
		if c, ok := res.(interface{ WriteCSV(io.Writer) error }); ok {
			return writeCSV(opt, name, c.WriteCSV)
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q", name)
}

func runConcurrent(_ string, opt options, out io.Writer) error {
	o := experiments.DefaultConcurrent()
	o.Seed, o.Sessions, o.Budget = opt.seed, opt.sessions, opt.budget
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
}

func runRecord(name string, opt options, out io.Writer) error {
	if opt.recordPath == "" {
		return fmt.Errorf("%s needs -record FILE", name)
	}
	rec, err := experiments.RecordSweep(opt.seed, opt.trials)
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
	if err := writeCSV(opt, name, rec.WriteCSV); err != nil {
		return err
	}
	return f.Close()
}

func runReplay(name string, opt options, out io.Writer) error {
	if opt.recordPath == "" {
		return fmt.Errorf("%s needs -record FILE", name)
	}
	f, err := os.Open(opt.recordPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.ReplayAnalysis(f, out)
}

// writeCSV saves a result's raw series when -csv was given.
func writeCSV(opt options, name string, fn func(io.Writer) error) error {
	if opt.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(opt.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fn(f); err != nil {
		return err
	}
	return f.Close()
}
