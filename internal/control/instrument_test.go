package control

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/obs/slo"
)

func instrTestArray(n int) *element.Array {
	elems := make([]*element.Element, n)
	for i := range elems {
		elems[i] = &element.Element{States: element.SP4TStates()}
	}
	return element.NewArray(elems...)
}

// instrTestEval scores configurations by the sum of their state indices —
// a deterministic landscape with a known optimum (all max states).
func instrTestEval(cfg element.Config) (float64, error) {
	s := 0.0
	for _, v := range cfg {
		s += float64(v)
	}
	return s, nil
}

func TestInstrumentedRecordsRun(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf strings.Builder
	log := obs.NewLogger(&logBuf, obs.LevelDebug, obs.Logfmt)
	arr := instrTestArray(3)

	s := InstrumentScope(Greedy{Rng: rand.New(rand.NewPCG(1, 2))}, scope.Adopt("", reg, log, nil, nil, nil))
	if s.Name() != "greedy" {
		t.Errorf("name = %q", s.Name())
	}
	res, err := s.Search(arr, instrTestEval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("search_evaluations_total").Value(); got != int64(res.Evaluations) {
		t.Errorf("evaluations counter = %d, result reports %d", got, res.Evaluations)
	}
	if got := reg.Counter("search_runs_total").Value(); got != 1 {
		t.Errorf("runs counter = %d", got)
	}
	if got := reg.Gauge("search_best_objective").Value(); got != res.BestScore {
		t.Errorf("best gauge = %g, result %g", got, res.BestScore)
	}
	snap := reg.Snapshot()
	sp, ok := snap.Spans["search/greedy"]
	if !ok || sp.Count != 1 {
		t.Errorf("search span missing: %+v", snap.Spans)
	}
	if !strings.Contains(logBuf.String(), "search: best improved") {
		t.Error("no trajectory events logged")
	}
	if !strings.Contains(logBuf.String(), "msg=\"search: finished\"") {
		t.Errorf("no summary event logged:\n%s", logBuf.String())
	}
}

func TestInstrumentedBudgetExhaustion(t *testing.T) {
	reg := obs.NewRegistry()
	arr := instrTestArray(4)
	s := InstrumentScope(Exhaustive{}, scope.Adopt("", reg, nil, nil, nil, nil))
	res, err := s.Search(arr, instrTestEval, 10)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if got := reg.Counter("search_evaluations_total").Value(); got != 10 {
		t.Errorf("evaluations counter = %d, want the budget 10", got)
	}
	if res.Evaluations != 10 {
		t.Errorf("result evaluations = %d", res.Evaluations)
	}
	if got := reg.Gauge("search_budget").Value(); got != 10 {
		t.Errorf("budget gauge = %g", got)
	}
}

// TestInstrumentDisabledPassThrough: with no scope, or a scope whose
// sinks are all nil, the searcher must come back unwrapped so default
// callers pay nothing.
func TestInstrumentDisabledPassThrough(t *testing.T) {
	base := HillClimb{Rng: rand.New(rand.NewPCG(3, 4))}
	if s := InstrumentScope(base, nil); s != Searcher(base) {
		t.Error("nil scope still wrapped the searcher")
	}
	if s := InstrumentScope(base, scope.Adopt("idle", nil, nil, nil, nil, nil)); s != Searcher(base) {
		t.Error("scope without sinks still wrapped the searcher")
	}
}

// TestInstrumentScopeFeedsEverySink: one search through a scope carrying
// a health monitor, flight recorder, phase collector and loop tracer
// lands in each of them — one decision record and one search_eval call
// per evaluation, the best score in the monitor, and a "search" phase
// in the traced loop with one measure span per evaluation.
func TestInstrumentScopeFeedsEverySink(t *testing.T) {
	dir := t.TempDir()
	rec, err := flight.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mon := health.NewMonitor(nil, nil, 0, 0)
	pc := prof.NewCollector()
	tr := slo.NewTracer(nil, slo.Config{})
	sc := scope.Adopt("full", nil, nil, mon, rec, pc).WithTracer(tr)

	loop := tr.StartLoop("test")
	res, err := InstrumentScope(Greedy{Rng: rand.New(rand.NewPCG(5, 6))}, sc).
		Search(instrTestArray(3), instrTestEval, 0)
	loop.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Decisions) != res.Evaluations {
		t.Errorf("decision records = %d, evaluations = %d", len(run.Decisions), res.Evaluations)
	}

	mon.Sample()
	best := mon.Snapshot().Series[health.KPISearchBest]
	if len(best) == 0 || best[len(best)-1].Value != res.BestScore {
		t.Errorf("monitor search_best = %+v, result best %g", best, res.BestScore)
	}

	var calls int64 = -1
	for _, p := range pc.Snapshot() {
		if p.Phase == "search_eval" {
			calls = p.Calls
		}
	}
	if calls != int64(res.Evaluations) {
		t.Errorf("search_eval calls = %d, evaluations = %d", calls, res.Evaluations)
	}

	slowest := tr.Snapshot().Slowest
	if len(slowest) != 1 {
		t.Fatalf("tracer retained %d loops, want 1", len(slowest))
	}
	var search uint32
	for _, sp := range slowest[0].Spans {
		if sp.Name == "search" && sp.Parent == 1 {
			search = sp.ID
		}
	}
	if search == 0 {
		t.Fatalf("loop has no search phase: %+v", slowest[0].Spans)
	}
	measures := 0
	for _, sp := range slowest[0].Spans {
		if sp.Name == "measure" && sp.Parent == search {
			measures++
		}
	}
	if measures != res.Evaluations {
		t.Errorf("search phase has %d measure spans, evaluations = %d", measures, res.Evaluations)
	}
}

// TestInstrumentedSameResult: instrumentation must not perturb the
// search itself — identical seeds give identical outcomes.
func TestInstrumentedSameResult(t *testing.T) {
	arr := instrTestArray(4)
	plain, err := (Anneal{Rng: rand.New(rand.NewPCG(7, 8)), Steps: 40}).Search(arr, instrTestEval, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := InstrumentScope(Anneal{Rng: rand.New(rand.NewPCG(7, 8)), Steps: 40},
		scope.Adopt("", obs.NewRegistry(), nil, nil, nil, nil)).
		Search(arr, instrTestEval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BestScore != wrapped.BestScore || plain.Evaluations != wrapped.Evaluations {
		t.Errorf("instrumentation changed the search: %+v vs %+v", plain, wrapped)
	}
}
