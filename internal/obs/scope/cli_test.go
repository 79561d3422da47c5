package scope

import (
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"press/internal/obs/flight"
	"press/internal/obs/obstest"
	"press/internal/obs/prof"
	"press/internal/obs/tsdb"
)

func parseCLI(t *testing.T, args ...string) *CLI {
	t.Helper()
	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c
}

func startCLI(t *testing.T, args ...string) (*CLI, *Scope) {
	t.Helper()
	c := parseCLI(t, args...)
	sc, err := c.Start(io.Discard, "")
	if err != nil {
		t.Fatal(err)
	}
	return c, sc
}

// TestCLIRejectedFlagsLeaveNoArtifacts: every invalid flag value is
// rejected before Start creates anything — no run directory under the
// flight root, no store directory, no listener.
func TestCLIRejectedFlagsLeaveNoArtifacts(t *testing.T) {
	for _, bad := range []string{
		"-telemetry-format=xml",
		"-sample-interval=-1s",
		"-log-level=loud",
		"-alert-rules=bogus_kpi>1",
		"-flight-segment-mb=-1",
		"-runtime-metrics-interval=-1s",
		"-loop-deadline=-1s",
		"-export-interval=-1s",
		"-tsdb-retention=-1s",
	} {
		t.Run(strings.TrimPrefix(bad, "-"), func(t *testing.T) {
			flightRoot := t.TempDir()
			tsdbDir := filepath.Join(t.TempDir(), "tsdb")
			c := parseCLI(t, bad,
				"-flight-dir", flightRoot,
				"-tsdb-dir", tsdbDir,
				"-telemetry-addr=127.0.0.1:0")
			sc, err := c.Start(io.Discard, "")
			if err == nil {
				c.Finish(io.Discard)
				t.Fatalf("%s accepted", bad)
			}
			if sc != nil {
				t.Error("rejected Start returned a scope")
			}
			if ents, err := os.ReadDir(flightRoot); err != nil || len(ents) != 0 {
				t.Errorf("flight root after rejection: %v %v", ents, err)
			}
			if _, err := os.Stat(tsdbDir); !os.IsNotExist(err) {
				t.Errorf("tsdb dir created despite rejection (stat err %v)", err)
			}
		})
	}
}

// TestCLIStartFailureRollsBack: when a component fails to come up after
// others are running, Start stops everything it started — the listener
// is released, the flight writer closed, and no goroutine outlives it.
func TestCLIStartFailureRollsBack(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	addrRE := regexp.MustCompile(`addr="?([^\s"]+)`)
	for name, failing := range map[string][]string{
		"tsdb-dir under file":       {"-tsdb-dir", filepath.Join(blocker, "tsdb")},
		"cpuprofile in missing dir": {"-cpuprofile", filepath.Join(missing, "cpu.pprof")},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c := parseCLI(t, append([]string{
				"-telemetry-addr=127.0.0.1:0",
				"-log-level=info",
				"-flight-dir", t.TempDir(),
				"-alert-rules=default",
				"-runtime-metrics-interval=10ms",
			}, failing...)...)
			var logBuf strings.Builder
			if _, err := c.Start(&logBuf, ""); err == nil {
				c.Finish(io.Discard)
				t.Fatal("Start succeeded")
			}
			m := addrRE.FindStringSubmatch(logBuf.String())
			if m == nil {
				t.Fatalf("no listening address logged:\n%s", logBuf.String())
			}
			if conn, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
				conn.Close()
				t.Errorf("%s still accepts connections after a failed Start", m[1])
			}
			if !obstest.WaitUntil(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
				t.Errorf("goroutines = %d after a failed Start, baseline %d", runtime.NumGoroutine(), base)
			}
			buf := make([]byte, 1<<20)
			if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "flight.(*Recorder).loop") {
				t.Error("flight writer still running after a failed Start")
			}
			if err := c.Finish(io.Discard); err != nil {
				t.Errorf("Finish after a failed Start: %v", err)
			}
		})
	}
}

// TestCLIStoreGetsFinalTail: deltas made after the store's last timer
// tick still reach it, through the final collection when Finish closes
// the store, labeled with the run's session.
func TestCLIStoreGetsFinalTail(t *testing.T) {
	for name, session := range map[string]string{
		"unnamed run": "",
		"named run":   "run-7",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := parseCLI(t, "-tsdb-dir", dir, "-export-interval", "1h")
			sc, err := c.Start(io.Discard, session)
			if err != nil {
				t.Fatal(err)
			}
			sc.Registry().Counter("tail_total").Add(5)
			if err := c.Finish(io.Discard); err != nil {
				t.Fatal(err)
			}
			ro, err := tsdb.Open(tsdb.Options{Dir: dir, ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			samples, err := ro.Instant(`tail_total{session="`+session+`"}`, time.Now())
			if err != nil || len(samples) != 1 || samples[0].V != 5 {
				t.Fatalf("store missed the final tail: %v %+v", err, samples)
			}
		})
	}
}

// TestCLIFinalFramesReachFlightLog: Finish writes the last cumulative
// phase costs and one last runtime sample before the flight log closes,
// so a run shorter than every cadence still records both.
func TestCLIFinalFramesReachFlightLog(t *testing.T) {
	c, sc := startCLI(t, "-flight-dir", t.TempDir(), "-runtime-metrics-interval=1h")
	sp := sc.Prof().Start(prof.PhaseSweep)
	sp.End()
	dir := sc.Flight().Dir()
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One sample when the sampler starts, one more from Finish.
	if len(run.Runtime) != 2 {
		t.Errorf("runtime frames = %d, want 2", len(run.Runtime))
	}
	var swept bool
	for _, pc := range run.PhaseCosts {
		swept = swept || (pc.Phase == "sweep" && pc.Calls == 1)
	}
	if !swept {
		t.Errorf("final phase costs missing from the run log: %+v", run.PhaseCosts)
	}
}
