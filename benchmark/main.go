// Command pressbenchmark is the repository benchmark: four physics
// workloads, from the paper's Fig 4 sweep to the closed control loop, each
// timed from outside the layers it calls. See README.md for the workloads,
// the metrics and how they map onto layers.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload fig4-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// checkSeed seeds the fixed correctness pass every run starts with.
	checkSeed = 442
	// checkTolDB is how far a headline dB value or score may drift from
	// testdata/expected.json.
	checkTolDB = 1e-6
	// A timed run builds its inputs at least setupMinReps times and until
	// setupMinTime has passed (at most setupMaxReps times); setup_s is the
	// median. Workloads whose set-up takes well under a millisecond need
	// the many repetitions for a steady median.
	setupMinReps = 5
	setupMaxReps = 200
	setupMinTime = 500 * time.Millisecond
	expectedOut  = "benchmark/testdata/expected.json"
)

//go:embed testdata/expected.json
var expectedJSON []byte

func main() {
	// One P: every timed instruction, the garbage collector's included,
	// runs on the thread whose speed the reference kernel measures (see
	// speed.go), and the numbers do not depend on the host's core count.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and runs the benchmark. It returns 0 when every
// output was correct, 1 when a check or invariant failed (after printing
// the result line) or set-up failed, and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pressbenchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long each timed phase measures")
	traceOn := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as JSON to this file")
	repeat := fs.Int("repeat", 1, "runs per workload (seeds seed, seed+1, ...); prints median and IQR")
	update := fs.Bool("update", false, "regenerate "+expectedOut+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceOn != 0 && *traceOn != 1) || !(*seconds > 0) || *repeat < 1 {
		fmt.Fprintln(stderr, "pressbenchmark: want -trace 0|1, -seconds > 0, -repeat >= 1 and no arguments")
		return 2
	}
	sel := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "pressbenchmark: unknown workload %q\n", *name)
			return 2
		}
		sel = []workload{w}
	}
	if *update {
		if err := updateExpected(); err != nil {
			fmt.Fprintln(stderr, "pressbenchmark:", err)
			return 1
		}
		return 0
	}
	expected := map[string][]record{}
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fmt.Fprintln(stderr, "pressbenchmark: embedded expected outputs:", err)
		return 1
	}
	var bounds map[string]float64
	if *repeat > 1 {
		var err error
		if bounds, err = loadBounds("BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "pressbenchmark: no bounds to flag against:", err)
		}
	}

	opts := runOpts{seconds: *seconds, traced: *traceOn == 1, traceOut: *traceOut, expected: expected}
	all := map[string]metric{}
	attempted, failed := 0, 0
	for _, w := range sel {
		var runs []map[string]metric
		for r := 0; r < *repeat; r++ {
			res, err := runOnce(w, *seed+uint64(r), opts, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "pressbenchmark: %s: %v\n", w.name, err)
				return 1
			}
			attempted += res.attempted
			failed += res.failed
			runs = append(runs, res.metrics)
		}
		ms := runs[0]
		if *repeat > 1 {
			ms = printRepeat(stdout, w.name, runs, bounds)
		}
		for k, v := range ms {
			if len(sel) > 1 {
				k = w.name + "." + k
			}
			all[k] = v
		}
	}
	fmt.Fprintln(stdout, metricLine(failed == 0, attempted, failed, all))
	if failed > 0 {
		return 1
	}
	return 0
}

type runOpts struct {
	seconds  float64
	traced   bool
	traceOut string
	expected map[string][]record
}

// runResult is one run of one workload.
type runResult struct {
	attempted, failed int
	metrics           map[string]metric
}

// phase is one timed stretch of back-to-back episodes. Times are scaled
// to reference speed (see speed.go) except rawDurs.
type phase struct {
	durs     []float64 // ns, successful episodes only
	rawDurs  []float64 // wall-clock ns, successful episodes only
	rates    []float64 // configurations per second, successful episodes only
	configs  int
	episodes int
	failed   int
	alloc    uint64
	inst     instance
	firstErr error
}

// configsPerS is the median over episodes of each episode's
// configurations per second.
func (p *phase) configsPerS() float64 {
	if len(p.rates) == 0 {
		return 0
	}
	return percentile(p.rates, 50)
}

// timed runs episodes back to back until the time limit has passed.
func timed(inst instance, seconds float64, tr *tracer) *phase {
	runtime.GC()
	p := &phase{inst: inst}
	a0 := allocBytes()
	limit := time.Duration(seconds * float64(time.Second))
	clock := newSpeedClock()
	// Probes inside an episode would sit inside its spans, so a traced
	// run brackets whole episodes only.
	if c, ok := inst.(clocked); ok && tr == nil {
		c.useClock(clock)
	}
	start := time.Now()
	for i := 0; time.Since(start) < limit; i++ {
		ep := tr.beginEpisode(i)
		clock.start()
		out, err := inst.episode(i)
		clock.stop()
		tr.endEpisode(ep)
		scaled, raw := clock.take()
		p.episodes++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("episode %d: %w", i, err)
			}
			continue
		}
		p.durs = append(p.durs, scaled)
		p.rawDurs = append(p.rawDurs, float64(raw))
		p.rates = append(p.rates, float64(out.configs)/(scaled/1e9))
		p.configs += out.configs
	}
	p.alloc = allocBytes() - a0
	return p
}

// setup builds the workload's inputs from seed.
func setup(w workload, seed uint64, n int, tr *tracer) (instance, error) {
	return w.setup(placementSeeds(seed, n), tr)
}

// buildRepeated builds the workload's inputs at least minReps times and
// until minTime has passed (at most setupMaxReps times). It returns the
// last build and the duration of each in seconds, scaled to reference
// speed.
func buildRepeated(w workload, seed uint64, minReps int, minTime time.Duration) (instance, []float64, error) {
	var inst instance
	var setups []float64
	for spent := time.Duration(0); len(setups) < minReps || (spent < minTime && len(setups) < setupMaxReps); {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		clock := newSpeedClock()
		clock.start()
		var err error
		inst, err = setup(w, seed, w.placements, nil)
		clock.stop()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		scaled, raw := clock.take()
		spent += raw
		setups = append(setups, scaled/1e9)
	}
	return inst, setups, nil
}

// checkPass runs the fixed correctness episodes on checkSeed.
func checkPass(w workload, tr *tracer) ([]record, error) {
	return episodes(w, checkSeed, w.checkEpisodes, tr)
}

// episodes builds n placements (at most the workload's count) from seed
// and runs n episodes on them, returning their records.
func episodes(w workload, seed uint64, n int, tr *tracer) ([]record, error) {
	inst, err := setup(w, seed, min(n, w.placements), tr)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	recs := make([]record, 0, n)
	for i := 0; i < n; i++ {
		ep := tr.beginEpisode(i)
		out, err := inst.episode(i)
		tr.endEpisode(ep)
		if err != nil {
			return recs, fmt.Errorf("episode %d: %w", i, err)
		}
		recs = append(recs, out.rec)
	}
	return recs, nil
}

// compareRecords returns how many episodes of got differ from want:
// configurations must match exactly and values to within tol.
func compareRecords(got, want []record, tol float64) (mismatches int, first string) {
	for i := 0; i < max(len(got), len(want)); i++ {
		if msg := diffRecord(got, want, i, tol); msg != "" {
			if mismatches == 0 {
				first = fmt.Sprintf("episode %d: %s", i, msg)
			}
			mismatches++
		}
	}
	return mismatches, first
}

func diffRecord(got, want []record, i int, tol float64) string {
	if i >= len(got) || i >= len(want) {
		return fmt.Sprintf("%d episodes, want %d", len(got), len(want))
	}
	g, w := got[i], want[i]
	if strings.Join(g.Configs, ";") != strings.Join(w.Configs, ";") {
		return fmt.Sprintf("configurations %q, want %q", g.Configs, w.Configs)
	}
	if len(g.Values) != len(w.Values) {
		return fmt.Sprintf("%d values, want %d", len(g.Values), len(w.Values))
	}
	for k := range g.Values {
		if !(math.Abs(g.Values[k]-w.Values[k]) <= tol) {
			return fmt.Sprintf("value %d = %.9g, want %.9g", k, g.Values[k], w.Values[k])
		}
	}
	return ""
}

// correctness runs the check pass (untraced, and traced too when the run
// is traced) and returns the episodes attempted and failed.
func correctness(w workload, opts runOpts, stderr io.Writer) (attempted, failed int) {
	want := opts.expected[w.name]
	got, err := checkPass(w, nil)
	attempted += w.checkEpisodes
	if err != nil {
		fmt.Fprintf(stderr, "pressbenchmark: %s check: %v\n", w.name, err)
		return attempted, w.checkEpisodes
	}
	if n, first := compareRecords(got, want, checkTolDB); n > 0 {
		fmt.Fprintf(stderr, "pressbenchmark: %s: %d check episodes differ from %s; %s\n", w.name, n, expectedOut, first)
		failed += n
	}
	if opts.traced {
		traced, err := checkPass(w, newTracer())
		attempted += w.checkEpisodes
		if err != nil {
			fmt.Fprintf(stderr, "pressbenchmark: %s traced check: %v\n", w.name, err)
			return attempted, failed + w.checkEpisodes
		}
		if n, first := compareRecords(traced, got, 0); n > 0 {
			fmt.Fprintf(stderr, "pressbenchmark: %s: tracing changed %d check episodes; %s\n", w.name, n, first)
			failed += n
		}
	}
	return attempted, failed
}

// runOnce runs one workload once: the check pass, then either the timed
// untraced phase (end-to-end metrics) or the traced pass (per-layer
// metrics).
func runOnce(w workload, seed uint64, opts runOpts, stdout, stderr io.Writer) (*runResult, error) {
	res := &runResult{}
	res.attempted, res.failed = correctness(w, opts, stderr)
	fmt.Fprintf(stdout, "\n== %s  seed %d  placements %d\n", w.name, seed, w.placements)

	// A traced run measures the untraced rate once, over half the time,
	// only to report the tracing overhead.
	minReps, minTime, secs := setupMinReps, setupMinTime, opts.seconds
	if opts.traced {
		minReps, minTime, secs = 1, 0, secs/2
	}
	inst, setups, err := buildRepeated(w, seed, minReps, minTime)
	if err != nil {
		return nil, err
	}
	untraced := timed(inst, secs, nil)
	inst.close()
	res.attempted += untraced.episodes
	res.failed += untraced.failed
	if untraced.firstErr != nil {
		fmt.Fprintf(stderr, "pressbenchmark: %s: %v\n", w.name, untraced.firstErr)
	}
	if !opts.traced {
		res.metrics = endToEnd(stdout, untraced, setups)
		return res, nil
	}

	tr := newTracer()
	inst, err = setup(w, seed, w.placements, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced := timed(inst, opts.seconds, tr)
	inst.close()
	res.attempted += traced.episodes
	res.failed += traced.failed
	if traced.firstErr != nil {
		fmt.Fprintf(stderr, "pressbenchmark: %s traced: %v\n", w.name, traced.firstErr)
	}
	res.metrics = perLayer(stdout, tr, traced, untraced)
	if opts.traceOut != "" {
		if err := writeSpans(opts.traceOut, tr.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// endToEnd computes and prints the end-to-end metrics of an untraced run.
func endToEnd(out io.Writer, p *phase, setups []float64) map[string]metric {
	ms := map[string]metric{
		"setup_s":                {percentile(setups, 50), "s"},
		"configs_per_s":          {p.configsPerS(), "1/s"},
		"episode_p50_ms":         {percentile(p.durs, 50) / 1e6, "ms"},
		"alloc_bytes_per_config": {float64(p.alloc) / float64(max(p.configs, 1)), "B"},
	}
	if len(p.durs) == 0 {
		ms["episode_p50_ms"] = metric{0, "ms"}
	}
	fmt.Fprintf(out, "  %-24s %16s  %s\n", "metric", "value", "unit")
	for _, n := range []string{"setup_s", "configs_per_s", "episode_p50_ms", "alloc_bytes_per_config"} {
		fmt.Fprintf(out, "  %-24s %16.6g  %s\n", n, ms[n].Value, ms[n].Unit)
	}
	if pct := tailPct(len(p.durs)); pct > 0 {
		fmt.Fprintf(out, "  %-24s %16.6g  ms (n=%d)\n", fmt.Sprintf("episode_p%d_ms", pct), percentile(p.durs, float64(pct))/1e6, len(p.durs))
	}
	if len(p.rawDurs) > 0 {
		fmt.Fprintf(out, "  %-24s %16.6g  ms (wall clock, not scaled to reference speed)\n", "wall_episode_p50_ms", percentile(p.rawDurs, 50)/1e6)
	}
	if pct := tailPct(len(p.rawDurs)); pct > 0 {
		fmt.Fprintf(out, "  %-24s %16.6g  ms (wall clock)\n", fmt.Sprintf("wall_episode_p%d_ms", pct), percentile(p.rawDurs, float64(pct))/1e6)
	}
	fmt.Fprintf(out, "  %-24s %16.6g  ratio (%d of %d episodes; %d configurations)\n", "failed_frac",
		float64(p.failed)/float64(max(p.episodes, 1)), p.failed, p.episodes, p.configs)
	if c := p.inst.counters(); c.loops > 0 {
		fmt.Fprintf(out, "  %-24s %16.6g  ratio (loops over the coherence-time deadline)\n", "deadline_miss_frac",
			float64(c.deadlineMiss)/float64(c.loops))
	}
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes and prints the per-layer metrics of a traced run.
// Metrics of a layer the workload does not exercise read 0, as do tail
// percentiles with fewer than ten samples beyond them.
func perLayer(out io.Writer, tr *tracer, p, untraced *phase) map[string]metric {
	spans := tr.spans
	pct := func(k spanKind, q int, scale float64) float64 {
		d := durations(spans, k)
		if len(d) == 0 {
			return 0
		}
		if q == 50 {
			return percentile(d, 50) / scale
		}
		return tailPercentile(d, q) / scale
	}
	c := p.inst.counters()
	episodes := float64(max(p.episodes, 1))

	// A sweep is measured from outside as one call, so fig4-sweep's
	// per-measurement time is each sweep's duration over its soundings.
	measureP50, measureP99 := pct(spanMeasure, 50, 1e3), pct(spanMeasure, 99, 1e3)
	if sweeps := durations(spans, spanSweep); len(sweeps) > 0 {
		per := float64(c.measures) / float64(len(sweeps))
		for i := range sweeps {
			sweeps[i] /= per * 1e3
		}
		measureP50, measureP99 = percentile(sweeps, 50), tailPercentile(sweeps, 99)
	}

	var evalInSearch, search float64
	for _, s := range spans {
		switch {
		case s.Kind == spanSearch:
			search += float64(s.End - s.Start)
		case s.Kind == spanEval && s.Parent >= 0 && spans[s.Parent].Kind == spanSearch:
			evalInSearch += float64(s.End - s.Start)
		}
	}
	selfFrac := 0.0
	if search > 0 {
		selfFrac = 1 - evalInSearch/search
	}

	ms := map[string]metric{
		"experiments.build_us":            {pct(spanBuild, 50, 1e3), "us"},
		"radio.measure_us_p50":            {measureP50, "us"},
		"radio.measure_us_p99":            {measureP99, "us"},
		"radio.measures":                  {float64(c.measures) / episodes, "count"},
		"radio.sweep_ms":                  {pct(spanSweep, 50, 1e6), "ms"},
		"radio.mimo_measure_us":           {pct(spanMIMOMeasure, 50, 1e3), "us"},
		"mimo.cond_us":                    {pct(spanCond, 50, 1e3), "us"},
		"stats.pairdiff_us":               {pct(spanPairDiff, 50, 1e3), "us"},
		"control.search_ms":               {pct(spanSearch, 50, 1e6), "ms"},
		"control.eval_us":                 {pct(spanEval, 50, 1e3), "us"},
		"control.score_us":                {pct(spanScore, 50, 1e3), "us"},
		"control.evals":                   {float64(c.evals) / episodes, "count"},
		"control.self_frac":               {selfFrac, "ratio"},
		"control.improve_frac":            {ratio(float64(c.improving), float64(c.searchEvals)), "ratio"},
		"control.frac_of_exhaustive":      {ratio(c.fracSum, float64(c.fracN)), "ratio"},
		"control.deadline_miss_frac":      {ratio(float64(c.deadlineMiss), float64(c.loops)), "ratio"},
		"controlplane.actuate_us_p50":     {pct(spanActuate, 50, 1e3), "us"},
		"controlplane.actuate_us_p99":     {pct(spanActuate, 99, 1e3), "us"},
		"controlplane.sent":               {float64(c.sent), "count"},
		"controlplane.retries":            {float64(c.retries), "count"},
		"controlplane.timeouts":           {float64(c.timeouts), "count"},
		"controlplane.ack_frac":           {ratio(float64(c.acked), float64(c.sent)), "ratio"},
		"trace_overhead_frac":             {1 - ratio(p.configsPerS(), untraced.configsPerS()), "ratio"},
		"phase.path_trace_ns_per_config":  {0, "ns"},
		"phase.channel_sum_ns_per_config": {0, "ns"},
		"phase.frame_synth_ns_per_config": {0, "ns"},
		"phase.estimate_ns_per_config":    {0, "ns"},
		"phase.solve_ns_per_config":       {0, "ns"},
		"phase.path_terms_per_config":     {0, "count"},
	}
	configs := float64(max(p.configs, 1))
	for _, pc := range tr.prof.Snapshot() {
		key := "phase." + pc.Phase + "_ns_per_config"
		if _, ok := ms[key]; ok {
			ms[key] = metric{float64(pc.Ns) / configs, "ns"}
		}
		for _, a := range pc.Aux {
			if a.Name == "path_terms" {
				ms["phase.path_terms_per_config"] = metric{float64(a.Value) / configs, "count"}
			}
		}
	}

	fmt.Fprintf(out, "  traced: %d episodes, %d configurations, %d spans\n", p.episodes, p.configs, len(spans))
	printLayerTable(out, spans)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  %-34s %16s  %s\n", "per-layer metric", "value", "unit")
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %16.6g  %s\n", n, ms[n].Value, ms[n].Unit)
	}
	return ms
}

// updateExpected regenerates the expected check-pass outputs of every
// workload.
func updateExpected() error {
	all := map[string][]record{}
	for _, w := range workloads {
		recs, err := checkPass(w, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all[w.name] = recs
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectedOut, append(data, '\n'), 0o644); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w (run from the repository root)", err)
		}
		return err
	}
	return nil
}
