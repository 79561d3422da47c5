package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"press/internal/control"
	"press/internal/controlplane"
	"press/internal/element"
	"press/internal/experiments"
	"press/internal/geom"
	"press/internal/radio"
	"press/internal/rfphys"
	"press/internal/stats"
)

// record is the part of an episode's output the check pass compares with
// testdata/expected.json: chosen configurations exactly, headline dB
// values and scores to within checkTolDB.
type record struct {
	Configs []string  `json:"configs"`
	Values  []float64 `json:"values"`
}

// episodeOut is what one episode reports: the configurations it measured
// and its checkable outputs.
type episodeOut struct {
	configs int
	rec     record
}

// counters are the per-layer work counts an instance accumulates.
type counters struct {
	measures     int // radio.Link CSI soundings
	evals        int // control evaluations, sense included
	searchEvals  int // evaluations made inside Search calls
	improving    int // of which raised the running best of their search
	fracSum      float64
	fracN        int // heuristic-versus-exhaustive gain fractions summed
	loops        int
	deadlineMiss int
	sent, acked  int64
	retries      int64
	timeouts     int64
}

// instance is one workload's inputs, built up front. episode(i) runs the
// i-th episode, cycling through the placements; an error is a failed
// operation (an error from the program or a violated invariant).
type instance interface {
	episode(i int) (episodeOut, error)
	counters() counters
	close()
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// placements is how many placements set-up builds for a timed run;
	// the check pass builds checkEpisodes of them (at most placements).
	placements    int
	checkEpisodes int
	setup         func(seeds []uint64, tr *tracer) (instance, error)
}

// The workloads stress the layers differently, so that a change aimed at
// one has a workload that exercises it and one that bypasses it.
var workloads = []workload{
	// The paper's headline experiment: few configurations, many
	// placements, ofdm estimation and frame synthesis at full share.
	{name: "fig4-sweep", placements: 1000, checkEpisodes: 4, setup: setupFig4},
	// Per-configuration evaluation and enumeration order dominate.
	{name: "search-7el", placements: 10, checkEpisodes: 1, setup: setupSearch7},
	// SVD and antenna-pair channel sums; bypasses ofdm estimation.
	{name: "mimo-cond", placements: 120, checkEpisodes: 3, setup: setupMIMO},
	// Time-varying random-access evaluation beside lossy actuation.
	{name: "control-loop", placements: 1, checkEpisodes: 20, setup: setupControlLoop},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// placementSeeds derives n scenario seeds from the benchmark seed.
func placementSeeds(seed uint64, n int) []uint64 {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// measureStep is the simulated time one measurement takes on the paper's
// prototype; every evaluation advances the link's clock by it.
var measureStep = radio.PrototypeTiming.PerMeasurement + radio.PrototypeTiming.SwitchLatency

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func buildSISO(scen experiments.SISOScenario, tr *tracer) (*radio.Link, error) {
	sp := tr.begin(spanBuild)
	link, err := scen.Build()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	link.Prof = tr.profCollector()
	return link, nil
}

// clocked is implemented by instances whose episodes last long enough for
// the host's speed to change within one: they checkpoint the speed clock
// every checkpointEvals evaluations.
type clocked interface{ useClock(*speedClock) }

// checkpointEvals spaces speed-clock checkpoints about 20 ms apart.
const checkpointEvals = 256

// linkEval is the benchmark's control.EvalFunc over a radio.Link: one CSI
// sounding at the link's simulated time, scored by max-min SNR.
type linkEval struct {
	link  *radio.Link
	tr    *tracer
	c     *counters
	clock *speedClock
	t     time.Duration
	// best is the running best of the search in progress.
	best     float64
	inSearch bool
	// table, while recording, receives every score in evaluation order.
	table     []float64
	recording bool
}

func (e *linkEval) eval(cfg element.Config) (float64, error) {
	if (e.c.evals+1)%checkpointEvals == 0 {
		e.clock.checkpoint()
	}
	sp := e.tr.begin(spanEval)
	defer e.tr.end(sp)
	m := e.tr.begin(spanMeasure)
	csi, err := e.link.MeasureCSI(cfg, e.t.Seconds())
	e.tr.end(m)
	if err != nil {
		return 0, err
	}
	e.t += measureStep
	e.c.measures++
	e.c.evals++
	for _, s := range csi.SNRdB {
		if !finite(s) {
			return 0, fmt.Errorf("non-finite SNR %v under %v", s, cfg)
		}
	}
	sc := e.tr.begin(spanScore)
	score := control.MaxMinSNR{}.Score(csi)
	e.tr.end(sc)
	if e.inSearch {
		e.c.searchEvals++
		if score > e.best {
			e.c.improving++
			e.best = score
		}
	}
	if e.recording {
		e.table = append(e.table, score)
	}
	return score, nil
}

// search runs s through eval. Running out of budget is the normal end of
// a budgeted heuristic, not a failure.
func (e *linkEval) search(s control.Searcher, budget int) (*control.Result, error) {
	e.inSearch, e.best = true, math.Inf(-1)
	sp := e.tr.begin(spanSearch)
	r, err := s.Search(e.link.Array, e.eval, budget)
	e.tr.end(sp)
	e.inSearch = false
	if errors.Is(err, control.ErrBudgetExhausted) {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	return r, nil
}

// ---- fig4-sweep ----

const fig4Trials = 3

type fig4 struct {
	links []*radio.Link
	tr    *tracer
	c     counters
}

func setupFig4(seeds []uint64, tr *tracer) (instance, error) {
	w := &fig4{tr: tr}
	for _, s := range seeds {
		link, err := buildSISO(experiments.DefaultSISO(s), tr)
		if err != nil {
			return nil, err
		}
		w.links = append(w.links, link)
	}
	return w, nil
}

func (w *fig4) counters() counters { return w.c }
func (w *fig4) close()             {}

func (w *fig4) episode(i int) (episodeOut, error) {
	link := w.links[i%len(w.links)]
	sp := w.tr.begin(spanSweep)
	trials, err := link.SweepTrials(radio.PrototypeTiming, fig4Trials)
	w.tr.end(sp)
	if err != nil {
		return episodeOut{}, err
	}
	n := 0
	for _, ms := range trials {
		if err := checkSweep(link.Array, ms); err != nil {
			return episodeOut{}, err
		}
		n += len(ms)
	}
	w.c.measures += n
	mean := meanCurves(trials)

	sp = w.tr.begin(spanPairDiff)
	a, b, meanDiff, ok := stats.LargestPairDifference(mean)
	var single float64
	for _, ms := range trials {
		if _, _, d, ok := stats.LargestPairDifference(radio.SNRCurves(ms)); ok && d > single {
			single = d
		}
	}
	w.tr.end(sp)
	if !ok || !finite(meanDiff) || !finite(single) {
		return episodeOut{}, fmt.Errorf("fig4 pair statistics undefined (ok=%v, %v, %v)", ok, meanDiff, single)
	}
	return episodeOut{configs: n, rec: record{
		Configs: []string{link.Array.String(trials[0][a].Config), link.Array.String(trials[0][b].Config)},
		Values:  []float64{meanDiff, single},
	}}, nil
}

// checkSweep verifies that a sweep measured every configuration exactly
// once and that every SNR is finite.
func checkSweep(arr *element.Array, ms []radio.Measurement) error {
	n := arr.NumConfigs()
	if len(ms) != n {
		return fmt.Errorf("sweep measured %d configurations, want %d", len(ms), n)
	}
	seen := make([]bool, n)
	for _, m := range ms {
		if err := arr.Validate(m.Config); err != nil {
			return err
		}
		idx := arr.Index(m.Config)
		if idx != m.ConfigIdx || seen[idx] {
			return fmt.Errorf("sweep configuration %d repeated or mislabelled", m.ConfigIdx)
		}
		seen[idx] = true
		for _, s := range m.CSI.SNRdB {
			if !finite(s) {
				return fmt.Errorf("non-finite SNR %v in configuration %d", s, idx)
			}
		}
	}
	return nil
}

// meanCurves averages per-configuration SNR curves across trials.
func meanCurves(trials [][]radio.Measurement) [][]float64 {
	out := make([][]float64, len(trials[0]))
	for c := range out {
		out[c] = make([]float64, len(trials[0][c].CSI.SNRdB))
		for _, tr := range trials {
			for k, v := range tr[c].CSI.SNRdB {
				out[c][k] += v
			}
		}
		for k := range out[c] {
			out[c][k] /= float64(len(trials))
		}
	}
	return out
}

// ---- search-7el ----

const searchBudget = 120

type search7 struct {
	evals []*linkEval
	seeds []uint64
	tr    *tracer
	c     counters
}

func setupSearch7(seeds []uint64, tr *tracer) (instance, error) {
	w := &search7{seeds: seeds, tr: tr}
	for _, s := range seeds {
		scen := experiments.DefaultSISO(s)
		scen.NumElements = 7
		link, err := buildSISO(scen, tr)
		if err != nil {
			return nil, err
		}
		w.evals = append(w.evals, &linkEval{link: link, tr: tr, c: &w.c})
	}
	return w, nil
}

func (w *search7) counters() counters { return w.c }
func (w *search7) close()             {}

func (w *search7) useClock(c *speedClock) {
	for _, e := range w.evals {
		e.clock = c
	}
}

func (w *search7) episode(i int) (episodeOut, error) {
	p := i % len(w.evals)
	e := w.evals[p]
	arr := e.link.Array

	e.table, e.recording = e.table[:0], true
	exh, err := e.search(control.Exhaustive{}, 0)
	e.recording = false
	if err != nil {
		return episodeOut{}, err
	}
	if len(e.table) != arr.NumConfigs() || exh.Evaluations != len(e.table) {
		return episodeOut{}, fmt.Errorf("exhaustive search made %d evaluations of %d configurations", exh.Evaluations, arr.NumConfigs())
	}
	// Every comparison below scores configurations by the exhaustive
	// sweep's own measurement of them, so it is free of sounding noise.
	scoreOf := func(c element.Config) float64 { return e.table[arr.Index(c)] }
	if scoreOf(exh.Best) != exh.BestScore {
		return episodeOut{}, fmt.Errorf("exhaustive best %v scored %v, table says %v", exh.Best, exh.BestScore, scoreOf(exh.Best))
	}
	base, ok := arr.AllTerminated()
	if !ok {
		base = make(element.Config, arr.N())
	}
	baseline := scoreOf(base)
	if exh.BestScore < baseline {
		return episodeOut{}, fmt.Errorf("exhaustive best %.6f below baseline %.6f", exh.BestScore, baseline)
	}
	out := episodeOut{configs: exh.Evaluations, rec: record{
		Configs: []string{arr.String(exh.Best)},
		Values:  []float64{exh.BestScore, baseline},
	}}

	rng := func(k uint64) *rand.Rand { return rand.New(rand.NewPCG(w.seeds[p], uint64(i)<<8|k)) }
	heuristics := []control.Searcher{
		control.Greedy{Rng: rng(1), Restarts: 8},
		control.HillClimb{Rng: rng(2), Restarts: 4, StepsPerRestart: searchBudget},
		control.Anneal{Rng: rng(3), Steps: searchBudget},
		control.Genetic{Rng: rng(4), Pop: 16, Generations: searchBudget / 16},
	}
	for _, h := range heuristics {
		r, err := e.search(h, searchBudget)
		if err != nil {
			return episodeOut{}, err
		}
		if r.Evaluations > searchBudget {
			return episodeOut{}, fmt.Errorf("%s spent %d evaluations, budget %d", h.Name(), r.Evaluations, searchBudget)
		}
		hs := scoreOf(r.Best)
		if hs > exh.BestScore {
			return episodeOut{}, fmt.Errorf("%s found %.6f above the exhaustive best %.6f", h.Name(), hs, exh.BestScore)
		}
		if exh.BestScore > baseline {
			w.c.fracSum += (hs - baseline) / (exh.BestScore - baseline)
			w.c.fracN++
		}
		out.configs += r.Evaluations
		out.rec.Configs = append(out.rec.Configs, arr.String(r.Best))
		out.rec.Values = append(out.rec.Values, r.BestScore)
	}
	return out, nil
}

// ---- mimo-cond ----

const mimoSnapshots = 50

type mimoCond struct {
	links []*radio.MIMOLink
	tr    *tracer
	c     counters
}

func setupMIMO(seeds []uint64, tr *tracer) (instance, error) {
	w := &mimoCond{tr: tr}
	for _, s := range seeds {
		sp := tr.begin(spanBuild)
		ml, err := experiments.MIMOScenario{Seed: s, NumElements: 3, Snapshots: mimoSnapshots, Dim: 4}.Build()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		ml.Prof = tr.profCollector()
		w.links = append(w.links, ml)
	}
	return w, nil
}

func (w *mimoCond) counters() counters { return w.c }
func (w *mimoCond) close()             {}

func (w *mimoCond) episode(i int) (episodeOut, error) {
	ml := w.links[i%len(w.links)]
	med := make([]float64, ml.Array.NumConfigs())
	var at time.Duration
	var err error
	ml.Array.EachConfig(func(idx int, c element.Config) bool {
		sp := w.tr.begin(spanMIMOMeasure)
		ch, e := ml.MeasureAveraged(c, mimoSnapshots, radio.PrototypeTiming, at)
		w.tr.end(sp)
		if e != nil {
			err = e
			return false
		}
		at += mimoSnapshots * radio.PrototypeTiming.PerMeasurement
		sp = w.tr.begin(spanCond)
		cond := ch.CondProfileDB()
		w.tr.end(sp)
		for _, v := range cond {
			if !finite(v) {
				err = fmt.Errorf("non-finite condition number %v in configuration %d", v, idx)
				return false
			}
		}
		sp = w.tr.begin(spanMedian)
		med[idx] = stats.Median(cond)
		w.tr.end(sp)
		return true
	})
	if err != nil {
		return episodeOut{}, err
	}
	best, worst := 0, 0
	for i, m := range med {
		if m < med[best] {
			best = i
		}
		if m > med[worst] {
			worst = i
		}
	}
	return episodeOut{configs: len(med), rec: record{
		Configs: []string{ml.Array.String(ml.Array.ConfigAt(best)), ml.Array.String(ml.Array.ConfigAt(worst))},
		Values:  []float64{med[worst] - med[best], med[best], med[worst]},
	}}, nil
}

// ---- control-loop ----

const (
	loopElements = 8
	loopBudget   = 64
	// loopRestarts lets greedy restart when it converges early, so every
	// loop spends its whole budget: one greedy pass over 8 SP4T elements
	// is 25 evaluations, and three passes exceed 64. A loop's work then
	// does not depend on the seed.
	loopRestarts = 3
	walkMph      = 3
	loopLoss     = 0.02
	// loopPipeSeed fixes the control channel's loss draws; with it the
	// agent's Hello is delivered, so the handshake never waits on a loss.
	loopPipeSeed = 7
	loopTimeout  = 2 * time.Millisecond
)

type controlLoop struct {
	ev       *linkEval
	seed     uint64
	agent    *controlplane.Agent
	ctrl     *controlplane.Controller
	cancel   context.CancelFunc
	ctx      context.Context
	ends     [2]controlplane.Conn
	served   chan struct{}
	cur      element.Config
	deadline time.Duration
	tr       *tracer
	c        counters
}

func setupControlLoop(seeds []uint64, tr *tracer) (instance, error) {
	if len(seeds) != 1 {
		return nil, fmt.Errorf("control-loop runs one link, got %d placements", len(seeds))
	}
	scen := experiments.DefaultSISO(seeds[0])
	scen.NumElements = loopElements
	sp := tr.begin(spanBuild)
	link, err := scen.Build()
	if err == nil {
		link.RX.Node.Velocity = geom.V(rfphys.MphToMps(walkMph), 0, 0)
		link.InvalidateEnvironment()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	link.Prof = tr.profCollector()

	w := &controlLoop{seed: seeds[0], tr: tr, served: make(chan struct{}),
		deadline: control.CoherenceTimeAtSpeed(walkMph, link.Grid.CenterHz)}
	w.ev = &linkEval{link: link, tr: tr, c: &w.c}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	a, b := controlplane.NewLossyPipe(controlplane.LossyConfig{LossRate: loopLoss, Seed: loopPipeSeed})
	w.ends = [2]controlplane.Conn{a, b}
	w.agent = controlplane.NewAgent(1, link.Array)
	go func() {
		defer close(w.served)
		_ = w.agent.Serve(w.ctx, a)
	}()
	// Handshake under the default per-attempt timeout; the loop's tight
	// timeout applies to actuation only.
	w.ctrl = controlplane.NewController(b)
	hctx, hcancel := context.WithTimeout(w.ctx, 2*time.Second)
	err = w.ctrl.Handshake(hctx)
	hcancel()
	if err != nil {
		w.close()
		return nil, err
	}
	w.ctrl.Timeout = loopTimeout
	w.cur, _ = link.Array.AllTerminated()
	return w, nil
}

func (w *controlLoop) counters() counters {
	c := w.c
	c.sent = w.ctrl.Stats.Sent.Load()
	c.acked = w.ctrl.Stats.Acked.Load()
	c.retries = w.ctrl.Stats.Retries.Load()
	c.timeouts = w.ctrl.Stats.Timeouts.Load()
	return c
}

func (w *controlLoop) close() {
	w.cancel()
	w.ends[0].Close()
	w.ends[1].Close()
	<-w.served
}

func (w *controlLoop) episode(i int) (episodeOut, error) {
	start := time.Now()
	sense, err := w.ev.eval(w.cur)
	if err != nil {
		return episodeOut{}, err
	}
	g := control.Greedy{Rng: rand.New(rand.NewPCG(w.seed, uint64(i)+1)), Restarts: loopRestarts}
	r, err := w.ev.search(g, loopBudget)
	if err != nil {
		return episodeOut{}, err
	}
	sp := w.tr.begin(spanActuate)
	err = w.ctrl.SetConfig(w.ctx, r.Best)
	w.tr.end(sp)
	if err != nil {
		return episodeOut{}, err
	}
	w.cur = r.Best
	w.c.loops++
	if time.Since(start) > w.deadline {
		w.c.deadlineMiss++
	}
	if got := w.agent.Current(); !got.Equal(r.Best) {
		return episodeOut{}, fmt.Errorf("agent holds %v after actuating %v", got, r.Best)
	}
	arr := w.ev.link.Array
	return episodeOut{configs: 1 + r.Evaluations, rec: record{
		Configs: []string{arr.String(r.Best)},
		Values:  []float64{sense, r.BestScore},
	}}, nil
}
