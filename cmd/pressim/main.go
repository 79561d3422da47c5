// Command pressim regenerates every table and figure of the paper's
// exploratory study (§3) plus the §2/§4 analyses, printing the same
// rows/series the paper reports and optionally writing raw CSV data.
//
// Usage:
//
//	pressim -exp all
//	pressim -exp fig4 -trials 10 -placements 8
//	pressim -exp fig8 -csv out/
//	pressim -exp ablation
//
// Every experiment that runs from the flags a flight-log manifest records
// comes from experiments.Registry, which also fixes the order of -exp all
// and is what `pressctl replay` re-runs. Only concurrent, record and
// replay, which need inputs a manifest does not carry, are pressim's own.
// `pressim -h` lists every name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"press/internal/experiments"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/scope"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pressim:", err)
		os.Exit(1)
	}
}

type options struct {
	exp        string
	trials     int
	placements int
	sessions   int
	seed       uint64
	snapshots  int
	reps       int
	budget     int
	loops      int
	speed      float64
	slowPhase  time.Duration
	csvDir     string
	recordPath string
	tele       scope.CLI
}

// spec captures the invocation as a replayable RunSpec — the exact
// params a flight-log manifest records.
func (o *options) spec() experiments.RunSpec {
	return experiments.RunSpec{
		Exp: o.exp, Seed: o.seed, Trials: o.trials, Placements: o.placements,
		Snapshots: o.snapshots, Reps: o.reps, Budget: o.budget,
		Loops: o.loops, Speed: o.speed, SlowPhase: o.slowPhase,
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pressim", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.exp, "exp", "all", expUsage())
	fs.IntVar(&opt.trials, "trials", 10, "sweep repetitions for fig4/fig5/fig6")
	fs.IntVar(&opt.placements, "placements", 8, "random element placements for fig4")
	fs.Uint64Var(&opt.seed, "seed", 0, "seed override (0 = the calibrated defaults)")
	fs.IntVar(&opt.snapshots, "snapshots", 50, "channel measurements averaged per config for fig8")
	fs.IntVar(&opt.reps, "reps", 5, "sweep repetitions for fig8")
	fs.IntVar(&opt.budget, "budget", 200, "measurement budget for the search ablation")
	fs.IntVar(&opt.sessions, "sessions", 12, "rooms driven by -exp concurrent (each gets its own telemetry scope)")
	fs.IntVar(&opt.loops, "loops", 20, "control-loop iterations for -exp demo")
	fs.Float64Var(&opt.speed, "speed", 6, "endpoint speed in mph for -exp demo (sets the loop deadline; 0 = static)")
	fs.DurationVar(&opt.slowPhase, "slow-phase", 0, "stall injected into every demo loop's sense phase (forces deadline misses)")
	fs.StringVar(&opt.csvDir, "csv", "", "directory to write raw CSV series into (created if missing)")
	fs.StringVar(&opt.recordPath, "record", "", "JSON sweep-record path for the record/replay experiments")
	opt.tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if opt.csvDir != "" {
		if err := os.MkdirAll(opt.csvDir, 0o755); err != nil {
			return err
		}
	}
	// The whole invocation is one telemetry session: the flag-built
	// process stack is the ambient scope. The experiment name doubles as
	// the session label on exported batches ("" for multi-experiment runs:
	// those stay process-labeled).
	sessionID := ""
	if len(strings.Split(opt.exp, ",")) == 1 && opt.exp != "all" {
		sessionID = opt.exp
	}
	sc, err := opt.tele.Start(os.Stderr, sessionID)
	if err != nil {
		return err
	}
	experiments.SetScope(sc)
	defer experiments.SetScope(nil)
	if rec := sc.Flight(); rec != nil {
		man := flight.NewManifest("pressim", opt.exp, opt.seed)
		man.SetParams(opt.spec().Params())
		rec.RecordManifest(man)
	}
	if reg := sc.Registry(); reg != nil {
		// Pre-register the headline series so the snapshot always carries
		// them, even for experiments that never search or solve a channel.
		reg.Counter("search_evaluations_total")
		reg.Histogram("radio_channel_solve_seconds", obs.LatencyBuckets)
	}

	for i, name := range opt.spec().Experiments() {
		if i > 0 {
			fmt.Fprintln(out, "\n"+strings.Repeat("=", 72)+"\n")
		}
		sp := obs.StartSpan(sc.Registry(), "exp/"+name)
		err := runExperiment(name, opt, out)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return opt.tele.Finish(out)
}
