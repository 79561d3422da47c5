package scope

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/perf"
	"press/internal/obs/prof"
	"press/internal/obs/slo"
	"press/internal/obs/tsdb"
)

// phaseFlushInterval is how often the background flusher writes
// cumulative phase-cost snapshots to the flight log. Samples are
// cumulative, so a slow cadence costs only recency, never totals
// (Finish writes a final snapshot regardless).
const phaseFlushInterval = 5 * time.Second

// CLI is the telemetry command line every binary in this repository
// shares. Its flags configure the process-wide observability stack —
// metrics snapshot and live server, Chrome trace, structured logs,
// pprof files, channel-health alerting, the flight recorder, runtime
// sampling, phase-cost accounting, the control-loop deadline tracer,
// and the metrics-history store — and Start hands that stack back as
// the process's root Scope:
//
//	var tele scope.CLI
//	tele.Register(fs)
//	// after fs.Parse:
//	sc, err := tele.Start(os.Stderr, "session-id")
//	if err != nil { ... }
//	... pass sc to the producers ...
//	return tele.Finish(os.Stdout)
//
// With no flags set every component of the root scope is nil and the
// whole layer stays at its zero-cost disabled default.
type CLI struct {
	telemetry, telemetryFormat, telemetryAddr string
	sampleInterval                            time.Duration
	trace, logLevel, cpuProfile, memProfile   string

	alertRules     string
	healthInterval time.Duration

	flightDir       string
	flightSegmentMB int

	runtimeMetricsInterval time.Duration
	benchBaselineDir       string

	phaseAccounting bool

	loopTrace    bool
	loopDeadline time.Duration

	exportInterval time.Duration

	tsdbDir       string
	tsdbRetention time.Duration

	sc        *Scope // the root scope; nil before Start and after Finish
	tracelog  *obs.TraceLog
	rec       *obs.Recorder
	cpuFile   *os.File
	sampler   *perf.Sampler
	flushLife *obs.Lifecycle
}

// Register installs the telemetry flags on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.telemetry, "telemetry", "",
		`write a final metrics snapshot to this path ("-" = stdout)`)
	fs.StringVar(&c.telemetryFormat, "telemetry-format", "json",
		"metrics snapshot format: json|prom")
	fs.StringVar(&c.telemetryAddr, "telemetry-addr", "",
		"serve live telemetry over HTTP on this address (/metrics, /events, /debug/pprof)")
	fs.DurationVar(&c.sampleInterval, "sample-interval", obs.DefaultSampleInterval,
		"sampling period for the live /events stream")
	fs.StringVar(&c.trace, "trace", "",
		"write a Chrome trace-event JSON of all spans to this file (view at ui.perfetto.dev)")
	fs.StringVar(&c.logLevel, "log-level", "off",
		"structured log threshold on stderr: debug|info|warn|error|off")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&c.alertRules, "alert-rules", "",
		`channel-health alert rules, ';'-separated ("default" = built-in set; e.g. "null_depth_db>25 for 3")`)
	fs.DurationVar(&c.healthInterval, "health-interval", 0,
		"channel-health KPI sampling period (default: -sample-interval)")
	fs.StringVar(&c.flightDir, "flight-dir", "",
		"record a durable flight log (run manifest, actuations, CSI/KPI samples, alerts, search decisions) under this directory")
	fs.IntVar(&c.flightSegmentMB, "flight-segment-mb", flight.DefaultSegmentMB,
		"flight-log segment rotation threshold in MiB")
	fs.DurationVar(&c.runtimeMetricsInterval, "runtime-metrics-interval", 0,
		"poll runtime/metrics (GC pauses, sched latencies, heap, goroutines) into the registry at this period (0 = off)")
	fs.StringVar(&c.benchBaselineDir, "bench-baselines", ".",
		"directory /perfz scans for bench/BENCH_*.json and bench/history.ndjson baselines")
	fs.BoolVar(&c.phaseAccounting, "phase-accounting", false,
		"accumulate per-phase work counters (ns, calls, domain units); implied by -flight-dir or -telemetry-addr")
	fs.BoolVar(&c.loopTrace, "loop-trace", false,
		"trace control-loop iterations (span trees, deadline scoring, /tracez); implied by -flight-dir or -telemetry-addr")
	fs.DurationVar(&c.loopDeadline, "loop-deadline", 0,
		"coherence deadline each control-loop iteration is scored against (0 = none; see `pressctl budget`)")
	fs.DurationVar(&c.exportInterval, "export-interval", 0,
		"telemetry export collection cadence (default 1s)")
	fs.StringVar(&c.tsdbDir, "tsdb-dir", "",
		"persist metrics history into this directory (embedded TSDB; query with pressctl query or /query_range)")
	fs.DurationVar(&c.tsdbRetention, "tsdb-retention", 0,
		"metrics history retention for the 1m tier (default 24h; raw/10s tiers keep at most 30m/6h)")
}

// Start validates every flag, then brings up the configured components
// and returns them as the root scope, labeled session (the session tag
// on persisted history; "" leaves it process-labeled). Log records go
// to logw (conventionally os.Stderr).
//
// A rejected flag leaves no trace — no run directory, store, listener,
// or profile file — and a Start that fails partway stops everything it
// had started before returning the error.
func (c *CLI) Start(logw io.Writer, session string) (*Scope, error) {
	level, rules, err := c.validate()
	if err != nil {
		return nil, err
	}
	c.sc = &Scope{id: session}
	if err := c.start(logw, level, rules); err != nil {
		_ = c.shutdown(nil) // the start error is the one worth reporting
		return nil, err
	}
	return c.sc, nil
}

// validate checks every flag without side effects.
func (c *CLI) validate() (obs.Level, []health.Rule, error) {
	switch c.telemetryFormat {
	case "", "json", "prom":
	default:
		return 0, nil, fmt.Errorf("obs: unknown -telemetry-format %q (want json|prom)", c.telemetryFormat)
	}
	if c.flightDir != "" && c.flightSegmentMB < 0 {
		return 0, nil, fmt.Errorf("flight: negative -flight-segment-mb %d", c.flightSegmentMB)
	}
	for _, d := range []struct {
		flag string
		v    time.Duration
	}{
		{"sample-interval", c.sampleInterval},
		{"runtime-metrics-interval", c.runtimeMetricsInterval},
		{"loop-deadline", c.loopDeadline},
		{"export-interval", c.exportInterval},
		{"tsdb-retention", c.tsdbRetention},
	} {
		if d.v < 0 {
			return 0, nil, fmt.Errorf("negative -%s %v", d.flag, d.v)
		}
	}
	level, err := obs.ParseLevel(c.logLevel)
	if err != nil {
		return 0, nil, err
	}
	rules, err := health.ParseRules(c.alertRules)
	if err != nil {
		return 0, nil, err
	}
	return level, rules, nil
}

// start brings the components up in dependency order, filling c.sc. On
// error the caller rolls back through shutdown.
func (c *CLI) start(logw io.Writer, level obs.Level, rules []health.Rule) error {
	sc := c.sc
	if c.flightDir != "" {
		rec, err := flight.Open(filepath.Join(c.flightDir, flight.NewRunID()), c.flightSegmentMB)
		if err != nil {
			return err
		}
		sc.fl = rec
	}
	if level < obs.LevelOff {
		sc.log = obs.NewLogger(logw, level, obs.Logfmt)
	}
	// Persisting telemetry is meaningless without a registry, so
	// -tsdb-dir forces one just like the exposition flags do.
	if c.telemetry != "" || c.telemetryAddr != "" || c.trace != "" || c.tsdbDir != "" {
		sc.reg = obs.NewRegistry()
	}
	if c.trace != "" {
		c.tracelog = obs.NewTraceLog()
		sc.reg.SetTraceLog(c.tracelog)
	}
	if c.telemetryAddr != "" {
		c.rec = obs.NewRecorder(sc.reg, c.sampleInterval, 0)
		c.rec.Start()
		srv := obs.NewServer(sc.reg, c.rec)
		if err := srv.Start(c.telemetryAddr); err != nil {
			return err
		}
		sc.srv = srv
		if sc.log.Enabled(obs.LevelInfo) {
			sc.log.Info("telemetry server listening", "addr", srv.Addr())
		}
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		c.cpuFile = f
	}

	if sc.reg != nil || len(rules) > 0 {
		interval := c.healthInterval
		if interval <= 0 {
			interval = c.sampleInterval
		}
		sc.mon = health.NewMonitor(sc.reg, rules, interval, 0)
		sc.mon.Notify = alertNotify(sc)
		health.RegisterRoutes(sc.srv, sc.mon)
		sc.mon.Start()
	}
	if sc.srv != nil && c.flightDir != "" {
		flight.RegisterRoutes(sc.srv, c.flightDir)
	}
	if sc.fl != nil && sc.log.Enabled(obs.LevelInfo) {
		sc.log.Info("flight recorder started", "dir", sc.fl.Dir())
	}

	if c.runtimeMetricsInterval > 0 {
		if sc.reg == nil && sc.fl == nil {
			if sc.log.Enabled(obs.LevelWarn) {
				sc.log.Warn("-runtime-metrics-interval set but no telemetry output; enable -telemetry, -telemetry-addr, or -flight-dir")
			}
		} else {
			c.sampler = perf.NewSampler(sc.reg, sc.fl, c.runtimeMetricsInterval)
			c.sampler.Start()
			if sc.log.Enabled(obs.LevelInfo) {
				sc.log.Info("runtime-metrics sampler started", "interval", c.sampler.Interval())
			}
		}
	}
	if sc.srv != nil {
		perf.RegisterRoutes(sc.srv, c.sampler, c.benchBaselineDir)
	}

	// A flight log or a live server gives phase costs and loop traces
	// somewhere to go, so either one implies both.
	implied := sc.fl != nil || sc.srv != nil
	if c.phaseAccounting || implied {
		sc.pc = prof.NewCollector()
	}
	if sc.srv != nil {
		prof.RegisterRoutes(sc.srv, sc.pc)
	}
	if sc.pc != nil && sc.fl != nil {
		c.flushLife = &obs.Lifecycle{}
		c.flushLife.Start(nil, func(stop <-chan struct{}) { flushLoop(sc, stop) })
	}
	if c.loopTrace || implied {
		sc.tr = slo.NewTracer(sc.reg, slo.Config{
			Deadline: c.loopDeadline,
			Flight:   sc.fl,
			Health:   sc.mon,
		})
		slo.RegisterRoutes(sc.srv, sc.tr)
	}

	if c.tsdbDir != "" {
		if err := c.startTSDB(); err != nil {
			return err
		}
	}
	return nil
}

// startTSDB opens the metrics-history store, which collects the root
// registry's deltas (labeled with the session) every -export-interval.
func (c *CLI) startTSDB() error {
	sc := c.sc
	opt := tsdb.Options{
		Dir:             c.tsdbDir,
		Reg:             sc.reg,
		CollectInterval: c.exportInterval,
		Session:         sc.id,
	}
	if opt.CollectInterval <= 0 {
		opt.CollectInterval = tsdb.DefaultCollectInterval
	}
	if r := c.tsdbRetention; r > 0 {
		opt.Retention1m = r
		opt.RetentionRaw = min(r, tsdb.DefaultRetentionRaw)
		opt.Retention10s = min(r, tsdb.DefaultRetention10s)
	}
	store, err := tsdb.Open(opt)
	if err != nil {
		return fmt.Errorf("tsdb: open %s: %w", c.tsdbDir, err)
	}
	sc.ts = store
	tsdb.RegisterRoutes(sc.srv, store)
	if sc.srv != nil {
		sc.srv.AddHealthz(store.HealthzLine)
	}
	if sc.log != nil {
		sc.log.Info("tsdb started", "dir", c.tsdbDir)
	}
	return nil
}

// alertNotify fans the health monitor's notifications out to the flight
// log (alert transitions), the live /events stream, and the logger.
func alertNotify(sc *Scope) func(event string, v any) {
	fl, srv, logger := sc.fl, sc.srv, sc.log
	return func(event string, v any) {
		ev, isAlert := v.(health.Event)
		isAlert = isAlert && event == "alert"
		if isAlert {
			fl.RecordAlert(ev.Rule, uint8(ev.From), uint8(ev.To), ev.Value)
		}
		srv.Publish(event, v)
		if !isAlert || logger == nil {
			return
		}
		msg := "alert " + ev.To.String()
		kv := []any{"rule", ev.Rule, "from", ev.From.String(), "value", ev.Value}
		if ev.To == health.StateFiring {
			logger.Warn(msg, kv...)
		} else if logger.Enabled(obs.LevelInfo) {
			logger.Info(msg, kv...)
		}
	}
}

// flushLoop periodically writes sc's cumulative phase-cost snapshots
// so a crashed run still carries cost data up to the last flush.
func flushLoop(sc *Scope, stop <-chan struct{}) {
	t := time.NewTicker(phaseFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			flushPhaseCosts(sc)
		}
	}
}

func flushPhaseCosts(sc *Scope) {
	for _, pc := range sc.pc.Snapshot() {
		sc.fl.RecordPhaseCost(pc)
	}
}

// Finish tears the stack down — the collectors first, so the last
// phase-cost and runtime frames land in the flight log before it closes
// — then writes the requested profiles, trace, and metrics snapshot,
// and closes the metrics-history store last, so its final collection
// takes the tail of the run. stdout is the writer used when -telemetry
// is "-". Idempotent.
func (c *CLI) Finish(stdout io.Writer) error {
	return c.shutdown(stdout)
}

// shutdown stops every running component in teardown order. A nil
// stdout (the rollback of a failed Start) skips the output files.
func (c *CLI) shutdown(stdout io.Writer) error {
	sc := c.sc
	if sc == nil {
		return nil
	}
	c.sc = nil
	sc.tr.Stop()
	if c.flushLife != nil {
		c.flushLife.Stop()
		c.flushLife = nil
	}
	flushPhaseCosts(sc) // final cumulative totals before the recorder closes
	if c.sampler != nil {
		c.sampler.SampleOnce() // short runs still record runtime state
		c.sampler.Stop()
		c.sampler = nil
	}
	flErr := sc.fl.Close()
	sc.mon.Stop()
	err := c.stopObs(sc, stdout)
	closeErr := sc.ts.Close()
	for _, e := range []error{flErr, closeErr} {
		if err == nil {
			err = e
		}
	}
	return err
}

// stopObs closes the live server and recorder and stops CPU profiling,
// then — unless stdout is nil — writes the heap profile, the Chrome
// trace, and the final metrics snapshot.
func (c *CLI) stopObs(sc *Scope, stdout io.Writer) error {
	var srvErr error
	if sc.srv != nil {
		srvErr = sc.srv.Close()
	}
	if c.rec != nil {
		c.rec.Stop()
		c.rec = nil
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		err := c.cpuFile.Close()
		c.cpuFile = nil
		if srvErr == nil {
			srvErr = err
		}
	}
	if srvErr != nil || stdout == nil {
		return srvErr
	}
	if c.memProfile != "" {
		err := writeFile(c.memProfile, func(w io.Writer) error {
			runtime.GC() // materialize up-to-date allocation stats
			return pprof.WriteHeapProfile(w)
		})
		if err != nil {
			return err
		}
	}
	if c.tracelog != nil {
		c.tracelog.Stop() // freeze the buffer before exporting it
		if err := writeFile(c.trace, c.tracelog.WriteJSON); err != nil {
			return err
		}
	}
	if sc.reg == nil || c.telemetry == "" {
		return nil
	}
	if sc.log.Enabled(obs.LevelInfo) {
		snap := sc.reg.Snapshot()
		names := make([]string, 0, len(snap.Spans))
		for name := range snap.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := snap.Spans[name]
			sc.log.Info("span summary", "span", name, "count", s.Count,
				"total_s", s.TotalSeconds, "mean_s", s.MeanSeconds, "max_s", s.MaxSeconds)
		}
	}
	write := sc.reg.WriteJSON
	if c.telemetryFormat == "prom" {
		write = sc.reg.WriteText
	}
	if c.telemetry == "-" {
		return write(stdout)
	}
	return writeFile(c.telemetry, write)
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
