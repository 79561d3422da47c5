// Replay and cross-run diffing over flight-recorder run logs.
//
// `pressctl replay RUNDIR` re-executes the recorded run from its
// manifest — same scenario seed, same searcher RNG, same recorded
// timing knobs — into a fresh run log, then verifies the regenerated
// CSI and search-decision streams match the recording. `pressctl
// rundiff A B` summarizes two run logs and prints their KPI deltas.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"time"

	"press"
	"press/internal/control"
	"press/internal/experiments"
	"press/internal/obs/flight"
	"press/internal/obs/scope"
	"press/internal/obs/slo"
)

// resolveRunDir turns either a positional RUNDIR or a -flight-dir +
// -session pair into a concrete run directory. Session-scoped runs tag
// their manifests (flight.SessionParamKey), so a shared flight root
// holding many sessions' runs stays addressable by room.
func resolveRunDir(arg, flightDir, session string) (string, error) {
	switch {
	case arg != "" && flightDir == "":
		return arg, nil
	case arg == "" && flightDir != "":
		if session == "" {
			return "", errors.New("-flight-dir needs -session (or a session/scenario name) to pick a run")
		}
		dir, _, err := flight.FindRun(flightDir, session)
		return dir, err
	case arg != "" && flightDir != "":
		return "", errors.New("give either RUNDIR or -flight-dir, not both")
	default:
		return "", errors.New("no run selected")
	}
}

func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	tol := fs.Float64("tolerance", 1e-9, "per-subcarrier KPI tolerance in dB")
	jsonOut := fs.Bool("json", false, "emit the verification report as JSON")
	keep := fs.String("out", "", "directory to write the regenerated run log into (default: a discarded temp dir)")
	flightDir := fs.String("flight-dir", "", "shared flight root to search instead of a positional RUNDIR")
	session := fs.String("session", "", "session ID (or scenario name) selecting a run under -flight-dir; newest match wins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 || (fs.NArg() != 1 && *flightDir == "") {
		return errors.New("usage: pressctl replay [flags] RUNDIR  |  pressctl replay -flight-dir DIR -session ID [flags]")
	}
	runDir, err := resolveRunDir(fs.Arg(0), *flightDir, *session)
	if err != nil {
		return err
	}
	recorded, err := flight.ReadRun(runDir)
	if err != nil {
		return err
	}
	if recorded.Manifest == nil {
		return fmt.Errorf("replay: %s has no manifest record", runDir)
	}
	man := recorded.Manifest

	regenDir := *keep
	if regenDir == "" {
		tmp, err := os.MkdirTemp("", "press-replay-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		regenDir = tmp
	}
	rec, err := flight.Open(regenDir, 0)
	if err != nil {
		return err
	}

	switch {
	case man.Binary == "pressctl" && man.Scenario == "demo":
		err = replayDemo(man, rec)
	case man.Binary == "pressim":
		err = replayPressim(man, rec)
	default:
		rec.Close()
		return fmt.Errorf("replay: don't know how to replay binary %q scenario %q", man.Binary, man.Scenario)
	}
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	regenerated, err := flight.ReadRun(regenDir)
	if err != nil {
		return err
	}
	report := flight.Verify(recorded, regenerated, *tol)
	if *jsonOut {
		e := json.NewEncoder(out)
		e.SetIndent("", "  ")
		if err := e.Encode(report); err != nil {
			return err
		}
	} else if err := report.WriteText(out); err != nil {
		return err
	}
	if !report.OK() {
		return errors.New("replay: regenerated KPI stream does not match the recording")
	}
	return nil
}

// manifestInt reads an integer parameter recorded in the manifest.
func manifestInt(m *flight.Manifest, key string) (int64, error) {
	v, ok := m.Param(key)
	if !ok {
		return 0, fmt.Errorf("replay: manifest missing %s param", key)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replay: bad %s param %q", key, v)
	}
	return n, nil
}

// replayDemo re-executes a recorded `pressctl demo` run in-process: the
// scenario is rebuilt from the manifest seed, and the timing knobs the
// live run measured over TCP (control RTT, hence the coherence budget)
// are taken from the manifest instead, making the replay deterministic.
// The control plane itself is skipped — each candidate is applied
// directly — because the recording proves what was actuated; replay
// checks the physics and the search trajectory.
func replayDemo(man *flight.Manifest, rec *flight.Recorder) error {
	perMeasNs, err := manifestInt(man, "per_measurement_ns")
	if err != nil {
		return err
	}
	switchNs, err := manifestInt(man, "switch_latency_ns")
	if err != nil {
		return err
	}
	budget64, err := manifestInt(man, "budget")
	if err != nil {
		return err
	}
	restarts64, err := manifestInt(man, "restarts")
	if err != nil {
		return err
	}

	space, err := buildScenario(man.Seed, nil)
	if err != nil {
		return err
	}
	sc := scope.Adopt("", nil, nil, nil, rec, nil)
	link := space.Link("ap-client")
	link.AttachScope(sc)

	regen := press.NewFlightManifest("pressctl", "demo-replay", man.Seed)
	regen.Params = man.Params
	rec.RecordManifest(regen)

	// Baseline, exactly as the live run measured it.
	if _, err := space.Measure("ap-client", 0); err != nil {
		return err
	}

	ev := &control.Evaluator{
		Goals: []control.Goal{{Link: link, Objective: press.MaxMinSNR{}}},
		Timing: press.Timing{
			PerMeasurement: time.Duration(perMeasNs),
			SwitchLatency:  time.Duration(switchNs),
		},
		Actuate: func(cfg press.Config) (press.Config, error) {
			rec.RecordActuation(flight.SourceReplay, 0, cfg)
			return cfg, nil
		},
	}
	searcher := press.InstrumentSearcher(
		press.Greedy{Rng: rand.New(rand.NewPCG(man.Seed, 2)), Restarts: int(restarts64)}, sc)
	res, err := searcher.Search(space.Array, ev.Eval, int(budget64))
	if err != nil && !errors.Is(err, press.ErrBudgetExhausted) {
		return err
	}
	rec.RecordActuation(flight.SourceReplay, 0, res.Best)
	_, err = link.MeasureCSI(res.Best, ev.Elapsed().Seconds())
	return err
}

// replayPressim re-executes a recorded pressim run: the manifest params
// round-trip through experiments.RunSpec, and an ambient flight-only
// scope re-records the measurement stream the harnesses produce. The
// scope carries a flight-only loop tracer so loop-structured experiments
// (-exp demo) regenerate KindLoop frames too — their latencies are this
// host's wall clock, which is exactly the cross-run delta `pressctl
// rundiff` reports (flight.Verify deliberately ignores them).
func replayPressim(man *flight.Manifest, rec *flight.Recorder) error {
	spec, err := experiments.SpecFromManifest(man)
	if err != nil {
		return err
	}
	regen := press.NewFlightManifest("pressim", man.Scenario, man.Seed)
	regen.Params = man.Params
	rec.RecordManifest(regen)
	sc := scope.Adopt(man.Session(), nil, nil, nil, rec, nil).
		WithTracer(slo.NewTracer(nil, slo.Config{Flight: rec}))
	experiments.SetScope(sc)
	defer experiments.SetScope(nil)
	return spec.Run()
}

func runDiffCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rundiff", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the diff as JSON")
	flightDir := fs.String("flight-dir", "", "shared flight root to search instead of positional RUNDIRs")
	sessionA := fs.String("session-a", "", "session ID selecting run A under -flight-dir")
	sessionB := fs.String("session-b", "", "session ID selecting run B under -flight-dir")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 2 || (fs.NArg() != 2 && *flightDir == "") {
		return errors.New("usage: pressctl rundiff [flags] RUNDIR_A RUNDIR_B  |  pressctl rundiff -flight-dir DIR -session-a A -session-b B")
	}
	dirA, err := resolveRunDir(fs.Arg(0), *flightDir, *sessionA)
	if err != nil {
		return fmt.Errorf("run A: %w", err)
	}
	dirB, err := resolveRunDir(fs.Arg(1), *flightDir, *sessionB)
	if err != nil {
		return fmt.Errorf("run B: %w", err)
	}
	runA, err := flight.ReadRun(dirA)
	if err != nil {
		return err
	}
	runB, err := flight.ReadRun(dirB)
	if err != nil {
		return err
	}
	d := flight.Diff(flight.Summarize(runA), flight.Summarize(runB))
	if *jsonOut {
		e := json.NewEncoder(out)
		e.SetIndent("", "  ")
		return e.Encode(d)
	}
	return d.WriteText(out)
}
