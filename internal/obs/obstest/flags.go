package obstest

import (
	"errors"
	"flag"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// telemetryFlags registers the telemetry flag surface every binary in
// the repository exposes, written out literally (name, type, default,
// usage) so a change to any of them fails CheckTelemetryFlags.
func telemetryFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("telemetry", flag.ContinueOnError)
	fs.String("telemetry", "", `write a final metrics snapshot to this path ("-" = stdout)`)
	fs.String("telemetry-format", "json", "metrics snapshot format: json|prom")
	fs.String("telemetry-addr", "", "serve live telemetry over HTTP on this address (/metrics, /events, /debug/pprof)")
	fs.Duration("sample-interval", time.Second, "sampling period for the live /events stream")
	fs.String("trace", "", "write a Chrome trace-event JSON of all spans to this file (view at ui.perfetto.dev)")
	fs.String("log-level", "off", "structured log threshold on stderr: debug|info|warn|error|off")
	fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	fs.String("memprofile", "", "write a pprof heap profile to this file")
	fs.String("alert-rules", "",
		`channel-health alert rules, ';'-separated ("default" = built-in set; e.g. "null_depth_db>25 for 3")`)
	fs.Duration("health-interval", 0, "channel-health KPI sampling period (default: -sample-interval)")
	fs.String("flight-dir", "",
		"record a durable flight log (run manifest, actuations, CSI/KPI samples, alerts, search decisions) under this directory")
	fs.Int("flight-segment-mb", 64, "flight-log segment rotation threshold in MiB")
	fs.Duration("runtime-metrics-interval", 0,
		"poll runtime/metrics (GC pauses, sched latencies, heap, goroutines) into the registry at this period (0 = off)")
	fs.String("bench-baselines", ".",
		"directory /perfz scans for bench/BENCH_*.json and bench/history.ndjson baselines")
	fs.Bool("phase-accounting", false,
		"accumulate per-phase work counters (ns, calls, domain units); implied by -flight-dir or -telemetry-addr")
	fs.Bool("loop-trace", false,
		"trace control-loop iterations (span trees, deadline scoring, /tracez); implied by -flight-dir or -telemetry-addr")
	fs.Duration("loop-deadline", 0,
		"coherence deadline each control-loop iteration is scored against (0 = none; see `pressctl budget`)")
	fs.Duration("export-interval", 0, "telemetry export collection cadence (default 1s)")
	fs.String("tsdb-dir", "",
		"persist metrics history into this directory (embedded TSDB; query with pressctl query or /query_range)")
	fs.Duration("tsdb-retention", 0,
		"metrics history retention for the 1m tier (default 24h; raw/10s tiers keep at most 30m/6h)")
	return fs
}

// TelemetryFlagCount is the size of the shared telemetry flag surface.
const TelemetryFlagCount = 20

// HelpOutput runs a command entry point that is expected to stop at
// flag parsing with flag.ErrHelp (it was handed "-h") and returns the
// usage text the flag package wrote to os.Stderr.
func HelpOutput(t testing.TB, run func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run()
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// CheckTelemetryFlags asserts that usage — a flag.PrintDefaults listing
// — holds exactly the shared telemetry flags plus the command's own
// flags, and that every telemetry flag keeps its type, default, and
// usage string verbatim.
func CheckTelemetryFlags(t testing.TB, usage string, own ...string) {
	t.Helper()
	var sb strings.Builder
	want := telemetryFlags()
	want.SetOutput(&sb)
	want.PrintDefaults()
	wantBlocks := flagBlocks(sb.String())
	if len(wantBlocks) != TelemetryFlagCount {
		t.Fatalf("reference surface has %d flags, want %d", len(wantBlocks), TelemetryFlagCount)
	}
	got := flagBlocks(usage)
	for _, name := range own {
		if _, ok := got[name]; !ok {
			t.Errorf("command flag -%s missing", name)
		}
		delete(got, name)
	}
	for name, block := range wantBlocks {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("telemetry flag -%s missing", name)
		case g != block:
			t.Errorf("telemetry flag -%s changed:\n got %q\nwant %q", name, g, block)
		}
		delete(got, name)
	}
	extra := make([]string, 0, len(got))
	for name := range got {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("unexpected flags %v", extra)
	}
}

// flagBlocks splits PrintDefaults output into one block per flag, keyed
// by flag name.
func flagBlocks(usage string) map[string]string {
	blocks := map[string]string{}
	for _, b := range strings.Split("\n"+usage, "\n  -")[1:] {
		b = strings.TrimRight(b, "\n")
		name := b
		if i := strings.IndexAny(b, " \t\n"); i >= 0 {
			name = b[:i]
		}
		blocks[name] = b
	}
	return blocks
}
