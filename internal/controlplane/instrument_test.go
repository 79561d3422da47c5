package controlplane

import (
	"context"
	"strings"
	"testing"
	"time"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/scope"
)

// regScope is a scope whose only sink is reg.
func regScope(reg *obs.Registry) *scope.Scope { return scope.Adopt("", reg, nil, nil, nil, nil) }

// TestTelemetryCleanPipe: over a loss-free pipe every SetConfig acks on
// the first attempt, so the ack-latency histogram holds exactly one
// observation per actuation and the fault counters stay at zero.
func TestTelemetryCleanPipe(t *testing.T) {
	a, b := NewLossyPipe(LossyConfig{Seed: 11})
	arr := testArray(3)
	agent, agentReg := NewAgent(2, arr), obs.NewRegistry()
	agent.AttachScope(regScope(agentReg))
	startAgent(t, agent, a)

	ctrl, ctrlReg := NewController(b), obs.NewRegistry()
	ctrl.AttachScope(regScope(ctrlReg))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		t.Fatal(err)
	}

	const n = 7
	for i := 0; i < n; i++ {
		if err := ctrl.SetConfig(ctx, arr.ConfigAt(i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if _, err := ctrl.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	snap := ctrlReg.Snapshot()
	hist, ok := snap.Histograms["controlplane_ack_latency_seconds"]
	if !ok {
		t.Fatalf("no ack-latency histogram: %v", snap.Histograms)
	}
	if hist.Count != n {
		t.Errorf("ack latency observations = %d, want %d", hist.Count, n)
	}
	if got := snap.Counters["controlplane_acks_total"]; got != n {
		t.Errorf("acks counter = %d, want %d", got, n)
	}
	for _, zero := range []string{
		"controlplane_timeouts_total",
		"controlplane_retries_total",
		"controlplane_rejected_total",
		"controlplane_crc_errors_total",
	} {
		if got := snap.Counters[zero]; got != 0 {
			t.Errorf("%s = %d on a clean pipe", zero, got)
		}
	}
	rtt, ok := snap.Histograms["controlplane_ping_rtt_seconds"]
	if !ok || rtt.Count != 1 {
		t.Errorf("ping RTT histogram = %+v", rtt)
	}

	asnap := agentReg.Snapshot()
	if got := asnap.Counters["agent_setconfig_total"]; got != n {
		t.Errorf("agent setconfig counter = %d, want %d", got, n)
	}
	if got := asnap.Counters["agent_pings_total"]; got != 1 {
		t.Errorf("agent ping counter = %d", got)
	}
}

// TestTelemetryDeadAgent: with no agent at all, every attempt times out —
// the timeout counter must count each attempt and the ack-latency
// histogram must stay empty.
func TestTelemetryDeadAgent(t *testing.T) {
	_, b := NewLossyPipe(LossyConfig{Seed: 12})
	ctrl, reg := NewController(b), obs.NewRegistry()
	var logBuf strings.Builder
	ctrl.AttachScope(scope.Adopt("", reg, obs.NewLogger(&logBuf, obs.LevelDebug, obs.Logfmt), nil, nil, nil))
	ctrl.Timeout = 10 * time.Millisecond
	ctrl.Retries = 2
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	if err := ctrl.SetConfig(ctx, element.Config{0}); err == nil {
		t.Fatal("set-config succeeded with no agent")
	}
	snap := reg.Snapshot()
	attempts := int64(ctrl.Retries + 1)
	if got := snap.Counters["controlplane_timeouts_total"]; got != attempts {
		t.Errorf("timeouts = %d, want %d (one per attempt)", got, attempts)
	}
	if got := snap.Counters["controlplane_retries_total"]; got != attempts-1 {
		t.Errorf("retries = %d, want %d", got, attempts-1)
	}
	if h := snap.Histograms["controlplane_ack_latency_seconds"]; h.Count != 0 {
		t.Errorf("ack latency recorded %d observations with no acks", h.Count)
	}
	if !strings.Contains(logBuf.String(), "controlplane: retrying set-config") {
		t.Error("no retry events logged")
	}
	if !strings.Contains(logBuf.String(), "controlplane: set-config unacknowledged") {
		t.Error("no give-up event logged")
	}
}

// TestTelemetryMatchesStats: under induced loss the obs counters must
// mirror the atomic Stats counters exactly — they observe the same
// events at the same points.
func TestTelemetryMatchesStats(t *testing.T) {
	a, b := NewLossyPipe(LossyConfig{Seed: 13, LossRate: 0.3, Latency: time.Millisecond})
	arr := testArray(3)
	agent := NewAgent(4, arr)
	startAgent(t, agent, a)

	ctrl, reg := NewController(b), obs.NewRegistry()
	ctrl.AttachScope(regScope(reg))
	ctrl.Timeout = 30 * time.Millisecond
	ctrl.Retries = 20
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		t.Logf("handshake: %v (hello lost; continuing)", err)
	}
	for trial := 0; trial < 8; trial++ {
		if err := ctrl.SetConfig(ctx, arr.ConfigAt(trial)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}

	snap := reg.Snapshot()
	pairs := []struct {
		name string
		want int64
	}{
		{"controlplane_frames_sent_total", ctrl.Stats.Sent.Load()},
		{"controlplane_acks_total", ctrl.Stats.Acked.Load()},
		{"controlplane_retries_total", ctrl.Stats.Retries.Load()},
		{"controlplane_timeouts_total", ctrl.Stats.Timeouts.Load()},
		{"controlplane_crc_errors_total", ctrl.Stats.CRCErrors.Load()},
	}
	for _, p := range pairs {
		if got := snap.Counters[p.name]; got != p.want {
			t.Errorf("%s = %d, Stats report %d", p.name, got, p.want)
		}
	}
	// Every ack that arrived in time left one latency observation.
	if h := snap.Histograms["controlplane_ack_latency_seconds"]; h.Count != ctrl.Stats.Acked.Load() {
		t.Errorf("ack latency count = %d, acks = %d", h.Count, ctrl.Stats.Acked.Load())
	}
	if snap.Counters["controlplane_retries_total"] == 0 {
		t.Error("expected retries under 30% loss")
	}
}

// TestTelemetryRejected: a bad configuration is acked with a failure
// status — it must count as rejected, not as a timeout, and still leave
// an ack-latency observation (the wire round-trip happened).
func TestTelemetryRejected(t *testing.T) {
	a, b := NewLossyPipe(LossyConfig{Seed: 14})
	agent, agentReg := NewAgent(1, testArray(3)), obs.NewRegistry()
	agent.AttachScope(regScope(agentReg))
	startAgent(t, agent, a)

	ctrl, ctrlReg := NewController(b), obs.NewRegistry()
	ctrl.AttachScope(regScope(ctrlReg))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SetConfig(ctx, element.Config{9, 0, 0}); err == nil {
		t.Fatal("invalid config accepted")
	}
	snap := ctrlReg.Snapshot()
	if got := snap.Counters["controlplane_rejected_total"]; got != 1 {
		t.Errorf("rejected = %d", got)
	}
	if got := snap.Counters["controlplane_timeouts_total"]; got != 0 {
		t.Errorf("timeouts = %d for a rejection", got)
	}
	if h := snap.Histograms["controlplane_ack_latency_seconds"]; h.Count != 1 {
		t.Errorf("ack latency count = %d, want 1", h.Count)
	}
	if got := agentReg.Snapshot().Counters["agent_rejects_total"]; got != 1 {
		t.Errorf("agent rejects = %d", got)
	}
}
