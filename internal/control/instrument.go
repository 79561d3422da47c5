package control

import (
	"errors"
	"math"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// instrumented wraps a Searcher with every sink a telemetry scope
// carries: a per-strategy span ("search/<name>") for wall-time, the
// evaluations-consumed counter and budget gauge, the best-objective
// gauge, and best-so-far trajectory events on the structured log — the
// measure→search loop visibility the controller needs to stay inside
// its coherence budget. Beyond the registry and logger:
//   - the health monitor receives best-objective updates as the search
//     progresses (the search_best / search_regret_db KPIs);
//   - the flight recorder persists every evaluation (config, score,
//     improved flag) as a search-decision record, the audit trail
//     `pressctl replay` re-verifies;
//   - the phase collector accounts each evaluation to the search_eval
//     root phase (wall time, configs scored) for hotspot reports;
//   - the loop tracer gets one "search" phase span per run with a
//     per-measurement child for every evaluation, so /tracez shows where
//     a deadline-missing loop spent its coherence budget.
//
// The sinks are read from the scope once per Search.
type instrumented struct {
	searcher Searcher
	sc       *scope.Scope
}

// InstrumentScope wraps s with every sink the telemetry scope carries.
// A nil scope, or one whose sinks are all nil, returns s itself, so
// callers with telemetry off pay nothing.
func InstrumentScope(s Searcher, sc *scope.Scope) Searcher {
	if sc.Registry() == nil && sc.Logger() == nil && sc.Health() == nil &&
		sc.Flight() == nil && sc.Prof() == nil && sc.Tracer() == nil {
		return s
	}
	return instrumented{searcher: s, sc: sc}
}

// Name implements Searcher.
func (in instrumented) Name() string { return in.searcher.Name() }

// Search implements Searcher: it runs the wrapped strategy with an
// observed EvalFunc, mirroring exactly what tracker.measure sees (every
// successful evaluation, in order), and records the run's wall time.
func (in instrumented) Search(arr *element.Array, eval EvalFunc, budget int) (*Result, error) {
	reg, log, mon, rec, pc := in.sc.Registry(), in.sc.Logger(), in.sc.Health(), in.sc.Flight(), in.sc.Prof()
	name := in.searcher.Name()
	reg.Counter("search_runs_total").Inc()
	reg.Gauge("search_budget").Set(float64(budget))
	evals := reg.Counter("search_evaluations_total")
	bestGauge := reg.Gauge("search_best_objective")
	trajectory := log.Enabled(obs.LevelDebug)

	loop := in.sc.Tracer().Current()

	best := math.Inf(-1)
	n := 0
	wrapped := func(cfg element.Config) (float64, error) {
		esp := pc.Start(prof.PhaseSearch)
		msp := loop.Child("measure")
		score, err := eval(cfg)
		msp.End()
		if err != nil {
			esp.End()
			return score, err
		}
		pc.Add(prof.PhaseSearch, prof.AuxConfigsScored, 1)
		esp.End()
		evals.Inc()
		n++
		improved := score > best
		if improved {
			best = score
			bestGauge.Set(score)
			mon.ObserveSearchBest(score)
			if trajectory {
				log.Debug("search: best improved",
					"searcher", name, "evaluation", n, "score", score)
			}
		}
		rec.RecordDecision(uint64(n), score, improved, cfg)
		return score, nil
	}

	sp := obs.StartSpan(reg, "search/"+name)
	lsp := loop.Phase("search")
	res, err := in.searcher.Search(arr, wrapped, budget)
	lsp.End()
	wall := sp.End()

	if res != nil {
		log.Info("search: finished",
			"searcher", name, "evaluations", res.Evaluations, "budget", budget,
			"best", res.BestScore, "exhausted", errors.Is(err, ErrBudgetExhausted),
			"wall", wall)
	} else if err != nil {
		log.Error("search: failed", "searcher", name, "evaluations", n, "err", err)
	}
	return res, err
}
