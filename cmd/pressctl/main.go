// Command pressctl exercises the PRESS control plane: an element-side
// agent serving the binary actuation protocol over TCP, and a controller
// that optimizes a (simulated) link by actuating every candidate
// configuration over the wire before measuring it — the full §2 loop of
// measure → search → actuate under a coherence budget.
//
// Usage:
//
//	pressctl demo                    # agent + controller in one process
//	pressctl demo -speed 0.5         # walking-pace coherence budget
//	pressctl demo -flight-dir runs   # record a durable run log
//	pressctl agent -listen :7010     # standalone agent
//	pressctl ping  -connect ADDR     # control-plane RTT against an agent
//	pressctl replay runs/RUNID       # re-execute a run log, verify KPIs
//	pressctl rundiff runs/A runs/B   # KPI deltas between two run logs
//	pressctl hotspots runs/RUNID     # phase-cost breakdown of a run log
//	pressctl loops runs/RUNID        # control-loop deadline profile of a run log
//	pressctl query -tsdb-dir DIR EXPR # query a run's durable metrics history
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	"press"
	"press/internal/control"
	"press/internal/obs/flight"
)

// demoRestarts is the greedy restart count used by the demo — recorded
// in the manifest so replay reconstructs the identical searcher.
const demoRestarts = 2

// demoParams freezes the demo's timing-derived knobs as manifest
// parameters. The control-plane RTT is measured live (and therefore
// nondeterministic), so it is recorded here and replayed verbatim.
func demoParams(speed float64, perMeas, switchLat time.Duration, budget, restarts int) []flight.Param {
	return []flight.Param{
		{Key: "speed", Value: strconv.FormatFloat(speed, 'g', -1, 64)},
		{Key: "per_measurement_ns", Value: strconv.FormatInt(perMeas.Nanoseconds(), 10)},
		{Key: "switch_latency_ns", Value: strconv.FormatInt(switchLat.Nanoseconds(), 10)},
		{Key: "budget", Value: strconv.Itoa(budget)},
		{Key: "restarts", Value: strconv.Itoa(restarts)},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pressctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: pressctl demo|agent|ping|replay|rundiff|hotspots|loops|query [flags]")
	}
	switch args[0] {
	case "demo":
		return runDemo(args[1:])
	case "agent":
		return runAgent(args[1:])
	case "ping":
		return runPing(args[1:])
	case "replay":
		return runReplay(args[1:], os.Stdout)
	case "rundiff":
		return runDiffCmd(args[1:], os.Stdout)
	case "hotspots":
		return runHotspots(args[1:], os.Stdout)
	case "loops":
		return runLoops(args[1:], os.Stdout)
	case "query":
		return runQuery(args[1:], os.Stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want demo|agent|ping|replay|rundiff|hotspots|loops|query)", args[0])
	}
}

// buildScenario assembles the demo space: NLoS room, three parabolic
// elements, one AP→client link. The environment takes sc (nil when
// telemetry is off) first, so the initial traces are accounted too.
func buildScenario(seed uint64, sc *press.TelemetryScope) (*press.Space, error) {
	env := press.NewEnvironment(12, 9, 3)
	env.AttachScope(sc)
	env.AddScatterers(rand.New(rand.NewPCG(seed, 1)), 10, 35)
	env.Blockers = append(env.Blockers,
		press.NewBlocker(press.V(5.6, 4.2, 0), press.V(5.9, 5.0, 2.2), 35))

	rxPos := press.V(7.25, 4.7, 1.3)
	arr := press.NewArray(
		press.NewParabolicElement(press.V(6.0, 3.2, 1.5), rxPos),
		press.NewParabolicElement(press.V(6.5, 3.2, 1.5), rxPos),
		press.NewParabolicElement(press.V(5.6, 3.4, 1.5), rxPos),
	)
	space, err := press.NewSpace(env, arr, seed)
	if err != nil {
		return nil, err
	}
	tx := &press.Radio{
		Node:       press.Node{Pos: press.V(4.75, 4.5, 1.5), Pattern: press.Omni{PeakGainDBi: 2}},
		TxPowerDBm: 15, NoiseFigureDB: 6,
	}
	rx := &press.Radio{
		Node:          press.Node{Pos: rxPos, Pattern: press.Omni{PeakGainDBi: 2}},
		NoiseFigureDB: 6,
	}
	if _, err := space.AddLink("ap-client", tx, rx, press.WiFi20()); err != nil {
		return nil, err
	}
	return space, nil
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "scenario seed")
	speed := fs.Float64("speed", 0, "endpoint speed in mph (0 = static, unlimited budget)")
	perMeas := fs.Duration("per-measurement", 2*time.Millisecond, "cost of one CSI measurement")
	var tele press.TelemetryCLI
	tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The whole demo is one telemetry session: the flag-built stack's
	// root scope observes the link, agent, controller, and searcher alike.
	sc, err := tele.Start(os.Stderr, "demo")
	if err != nil {
		return err
	}

	space, err := buildScenario(*seed, sc)
	if err != nil {
		return err
	}
	link := space.Link("ap-client")
	link.AttachScope(sc)

	// Element-side agent on a TCP loopback listener.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	agent := press.NewAgent(1, space.Array)
	agent.AttachScope(sc)
	var mu sync.Mutex
	applied := space.Applied()
	rec := sc.Flight()
	agent.OnApply = func(cfg press.Config) {
		mu.Lock()
		applied = cfg
		mu.Unlock()
		rec.RecordActuation(flight.SourceAgent, 0, cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = agent.ListenAndServe(ctx, l) }()

	// Controller side.
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	ctrl := press.NewController(press.NewStreamConn(nc))
	ctrl.AttachScope(sc)
	hctx, hcancel := context.WithTimeout(ctx, 5*time.Second)
	defer hcancel()
	hsp := press.StartSpan(sc.Registry(), "demo/handshake")
	if err := ctrl.Handshake(hctx); err != nil {
		return err
	}
	rtt, err := ctrl.Ping(hctx)
	hsp.End()
	if err != nil {
		return err
	}
	fmt.Printf("connected to agent %d (%d elements) over %s, control RTT %v\n",
		ctrl.AgentID(), ctrl.NumElements(), l.Addr(), rtt)

	timing := press.Timing{PerMeasurement: *perMeas, SwitchLatency: rtt}
	budget := 0
	if *speed > 0 {
		budget = press.CoherenceBudgetAtSpeed(*speed, press.DefaultCarrierHz, timing)
		fmt.Printf("coherence budget at %.1f mph: %d measurements\n", *speed, budget)
	}

	// The manifest captures everything replay needs to regenerate the
	// run: the scenario seed plus the (measured, hence nondeterministic)
	// timing inputs that shaped the search, frozen as parameters.
	if rec != nil {
		man := press.NewFlightManifest("pressctl", "demo", *seed)
		man.SetParams(demoParams(*speed, *perMeas, rtt, budget, demoRestarts))
		sc.RecordManifest(man)
	}

	// Baseline.
	base, err := space.Measure("ap-client", 0)
	if err != nil {
		return err
	}
	fmt.Printf("baseline (all terminated): min SNR %.1f dB, throughput %.1f Mb/s\n",
		base.MinSNRdB(), press.ThroughputMbps(link.Grid, base.SNRdB))

	// Live loop: every candidate is actuated over the control plane,
	// then measured with whatever the agent really applied.
	ev := &control.Evaluator{
		Goals:  []control.Goal{{Link: link, Objective: press.MaxMinSNR{}}},
		Timing: timing,
		Actuate: func(cfg press.Config) (press.Config, error) {
			cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
			defer ccancel()
			if err := ctrl.SetConfig(cctx, cfg); err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			return applied.Clone(), nil
		},
	}

	searcher := press.InstrumentSearcher(
		press.Greedy{Rng: rand.New(rand.NewPCG(*seed, 2)), Restarts: demoRestarts}, sc)
	res, err := searcher.Search(space.Array, ev.Eval, budget)
	if err != nil && !errors.Is(err, press.ErrBudgetExhausted) {
		return err
	}
	if errors.Is(err, press.ErrBudgetExhausted) {
		fmt.Println("(coherence budget exhausted; best-effort result)")
	}

	// Actuate the winner and report.
	asp := press.StartSpan(sc.Registry(), "demo/actuate")
	actx, acancel := context.WithTimeout(ctx, 2*time.Second)
	defer acancel()
	if err := ctrl.SetConfig(actx, res.Best); err != nil {
		return err
	}
	asp.End()
	after, err := link.MeasureCSI(res.Best, ev.Elapsed().Seconds())
	if err != nil {
		return err
	}
	fmt.Printf("optimized %s: min SNR %.1f dB (%+.1f dB), throughput %.1f Mb/s, %d measurements\n",
		space.Array.String(res.Best), after.MinSNRdB(), after.MinSNRdB()-base.MinSNRdB(),
		press.ThroughputMbps(link.Grid, after.SNRdB), res.Evaluations)
	fmt.Printf("control plane: %d sent, %d acked, %d retries\n",
		ctrl.Stats.Sent.Load(), ctrl.Stats.Acked.Load(), ctrl.Stats.Retries.Load())
	return tele.Finish(os.Stdout)
}

func runAgent(args []string) error {
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7010", "TCP listen address")
	elements := fs.Int("elements", 3, "array size")
	id := fs.Uint64("id", 1, "agent id")
	var tele press.TelemetryCLI
	tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := tele.Start(os.Stderr, "agent")
	if err != nil {
		return err
	}
	elems := make([]*press.Element, *elements)
	for i := range elems {
		elems[i] = press.NewOmniElement(press.V(float64(i), 1, 1.5))
	}
	agent := press.NewAgent(uint32(*id), press.NewArray(elems...))
	agent.AttachScope(sc)
	if rec := sc.Flight(); rec != nil {
		man := press.NewFlightManifest("pressctl", "agent", *id)
		man.SetParams([]flight.Param{{Key: "elements", Value: strconv.Itoa(*elements)}})
		sc.RecordManifest(man)
		agent.OnApply = func(cfg press.Config) { rec.RecordActuation(flight.SourceAgent, 0, cfg) }
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("agent %d with %d elements listening on %s\n", *id, *elements, l.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err = agent.ListenAndServe(ctx, l)
	if errors.Is(err, context.Canceled) {
		return tele.Finish(os.Stdout)
	}
	return err
}

func runPing(args []string) error {
	fs := flag.NewFlagSet("ping", flag.ContinueOnError)
	connect := fs.String("connect", "127.0.0.1:7010", "agent address")
	count := fs.Int("count", 5, "pings to send")
	var tele press.TelemetryCLI
	tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := tele.Start(os.Stderr, "ping")
	if err != nil {
		return err
	}
	nc, err := net.Dial("tcp", *connect)
	if err != nil {
		return err
	}
	defer nc.Close()
	ctrl := press.NewController(press.NewStreamConn(nc))
	ctrl.AttachScope(sc)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		return err
	}
	fmt.Printf("agent %d, %d elements\n", ctrl.AgentID(), ctrl.NumElements())
	for i := 0; i < *count; i++ {
		rtt, err := ctrl.Ping(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("rtt %v\n", rtt)
	}
	return tele.Finish(os.Stdout)
}
