package main

import (
	"testing"

	"press/internal/obs/obstest"
)

func TestRunUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-arg invocation accepted")
	}
	if err := run([]string{"teleport"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestBuildScenario(t *testing.T) {
	space, err := buildScenario(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if space.Array.N() != 3 || space.Array.NumConfigs() != 64 {
		t.Errorf("array %d elements / %d configs", space.Array.N(), space.Array.NumConfigs())
	}
	if space.Link("ap-client") == nil {
		t.Error("ap-client link missing")
	}
	// Deterministic per seed.
	again, err := buildScenario(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := space.Measure("ap-client", 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := again.Measure("ap-client", 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range c1.SNRdB {
		if c1.SNRdB[k] != c2.SNRdB[k] {
			t.Fatal("scenario not deterministic per seed")
		}
	}
}

func TestDemoEndToEnd(t *testing.T) {
	// The demo subcommand exercises agent + controller over TCP loopback
	// and a greedy optimization; it must complete without error.
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := runDemo([]string{"-seed", "7", "-speed", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryFlagSurface pins the telemetry flags the demo, agent,
// and ping subcommands expose: exactly the shared set, each with its
// name, default, and usage.
func TestTelemetryFlagSurface(t *testing.T) {
	for sub, own := range map[string][]string{
		"demo":  {"seed", "speed", "per-measurement"},
		"agent": {"listen", "elements", "id"},
		"ping":  {"connect", "count"},
	} {
		t.Run(sub, func(t *testing.T) {
			usage := obstest.HelpOutput(t, func() error { return run([]string{sub, "-h"}) })
			obstest.CheckTelemetryFlags(t, usage, own...)
		})
	}
}
