package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"press/internal/controlplane"
	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/obs/slo"
	"press/internal/radio"
	"press/internal/stats"
)

// TestScopeReachesEveryProducer attaches one scope holding every sink to
// an environment and a link (through SISOScenario.Build), a second
// environment and a MIMO link (through MIMOScenario.Build), an agent and
// a controller, runs one sweep, one MIMO measurement and one SetConfig
// inside a traced loop, and checks that each sink received what each
// producer reads from the scope.
func TestScopeReachesEveryProducer(t *testing.T) {
	reg := obs.NewRegistry()
	// The logger serialises its writes; the buffer is read once the agent
	// goroutine has returned.
	var logBuf strings.Builder
	mon := health.NewMonitor(reg, nil, time.Hour)
	dir := t.TempDir()
	rec, err := flight.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close() // for the failure paths; the run is read after an explicit Close
	pc := prof.NewCollector()
	tr := slo.NewTracer(reg, slo.Config{})
	sc := scope.Adopt("attach", reg, obs.NewLogger(&logBuf, obs.LevelDebug, obs.Logfmt), mon, rec, pc).
		WithTracer(tr)

	siso := DefaultSISO(3)
	siso.Scope = sc
	link, err := siso.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := link.Sweep(radio.Timing{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mimoScen := DefaultMIMO(3)
	mimoScen.Scope = sc
	ml, err := mimoScen.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ml.MeasureChannel(element.Config{0, 1, 2}, 0); err != nil {
		t.Fatal(err)
	}

	// At seed 10 and a 50 % loss rate the pipe drops the controller's
	// first SetConfig frame and delivers everything else, so the one
	// actuation retries once and the controller logs the retry.
	aEnd, bEnd := controlplane.NewLossyPipe(controlplane.LossyConfig{Seed: 10, LossRate: 0.5})
	agent := controlplane.NewAgent(1, link.Array)
	agent.AttachScope(sc)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = agent.Serve(ctx, aEnd)
	}()
	ctrl := controlplane.NewController(bEnd)
	ctrl.AttachScope(sc)
	ctrl.Timeout = 200 * time.Millisecond
	if err := ctrl.Handshake(ctx); err != nil {
		t.Fatal(err)
	}
	loop := tr.StartLoop("attach")
	err = ctrl.SetConfig(ctx, element.Config{1, 2, 3})
	loop.End()
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-served
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Registry: every producer's counters.
	const sweeps, pairs, elems = 64, 4, 3
	counters := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"propagation_traces_total":           1 + pairs,
		"propagation_element_paths_total":    elems + pairs*elems,
		"radio_csi_measurements_total":       sweeps,
		"radio_sweeps_total":                 1,
		"radio_mimo_solves_total":            1,
		"controlplane_frames_sent_total":     2,
		"controlplane_retries_total":         1,
		"controlplane_timeouts_total":        1,
		"controlplane_frames_received_total": 1,
		"controlplane_acks_total":            1,
		"agent_frames_total":                 1,
		"agent_setconfig_total":              1,
	} {
		if got := counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := counters["propagation_paths_traced_total"]; got < 1+pairs {
		t.Errorf("propagation_paths_traced_total = %d, want at least one path per trace", got)
	}

	// Logger: the controller's retry and the agent's applied config.
	for _, want := range []string{"controlplane: retrying set-config", "agent: applied configuration"} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logBuf.String())
		}
	}

	// Flight log: one CSI record per sounding, in order.
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.CSI) != sweeps {
		t.Fatalf("flight log holds %d CSI records, want %d", len(run.CSI), sweeps)
	}
	last := ms[len(ms)-1].CSI.SNRdB
	if !slices.Equal(run.CSI[sweeps-1].SNRdB, last) {
		t.Errorf("last flight CSI record does not match the last sounding")
	}

	// Health monitor: the SNR feed (the link) and the actuation feed
	// (the agent).
	mon.Sample()
	snap := mon.Snapshot()
	if pts := snap.Series[health.KPIMinSNRdB]; len(pts) != 1 || pts[0].Value != stats.Min(last) {
		t.Errorf("min_snr_db series %v, want the last sounding's minimum %v", pts, stats.Min(last))
	}
	if pts := snap.Series[health.KPIControlStalenessS]; len(pts) != 1 {
		t.Errorf("control_staleness_s series %v, want one sample after the actuation", pts)
	}

	// Phase accounting: the environments' traces plus the two channel
	// builds, every channel sum and estimate, and the one actuation.
	calls := map[string]int64{}
	for _, c := range pc.Snapshot() {
		calls[c.Phase] = c.Calls
	}
	for phase, want := range map[prof.Phase]int64{
		prof.PhaseTrace:      1 + pairs + 2,
		prof.PhaseChannelSum: sweeps + 1,
		prof.PhaseEstimate:   sweeps,
		prof.PhaseActuate:    1,
	} {
		if got := calls[phase.Name()]; got != want {
			t.Errorf("%s closed %d spans, want %d", phase.Name(), got, want)
		}
	}

	// Loop tracer: the actuation's span and one ack span per attempt
	// under it.
	slow := tr.Snapshot().Slowest
	if len(slow) != 1 {
		t.Fatalf("tracer retained %d loops, want 1", len(slow))
	}
	var actuate uint32
	acks := 0
	for _, s := range slow[0].Spans {
		switch s.Name {
		case "actuate":
			actuate = s.ID
		case "ack":
			if s.Parent == actuate && actuate != 0 {
				acks++
			}
		}
	}
	if actuate == 0 || acks != 2 {
		t.Errorf("loop spans %+v; want an actuate span with two ack children", slow[0].Spans)
	}
}
