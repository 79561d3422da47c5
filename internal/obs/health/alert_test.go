package health

import (
	"math"
	"math/rand/v2"
	"testing"
)

// feed drives an engine through a value sequence for a single-metric
// rule set and returns the rule states after each sample plus all
// transitions. NaN values model "KPI unknown this sample".
func feed(t *testing.T, e *engine, metric string, values []float64) (states []State, events []Event) {
	t.Helper()
	hist := newRing[Point](64)
	for i, v := range values {
		if !math.IsNaN(v) {
			hist.push(Point{UnixMs: int64(i), Value: v})
		}
		kpi := func(name string) float64 {
			if name == metric {
				return v
			}
			return math.NaN()
		}
		window := func(name string, n int, dst []float64) []float64 {
			if name == metric {
				return lastValues(hist, n, dst)
			}
			return dst
		}
		events = append(events, e.eval(int64(i), kpi, window)...)
		states = append(states, e.rules[0].state)
	}
	return states, events
}

func mustRules(t *testing.T, s string) []Rule {
	t.Helper()
	rules, err := ParseRules(s)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestAlertTransitions(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		rule   string
		values []float64
		want   []State
	}{
		{
			name:   "pending then firing then resolved",
			rule:   "null_depth_db>25 for 3 clear 20",
			values: []float64{10, 30, 30, 30, 30, 10, 10, 10, 5},
			want: []State{
				StateInactive, StatePending, StatePending, StateFiring, StateFiring,
				StateFiring, StateFiring, StateResolved, StateInactive,
			},
		},
		{
			name:   "for=1 fires immediately",
			rule:   "null_depth_db>25",
			values: []float64{10, 30},
			want:   []State{StateInactive, StateFiring},
		},
		{
			name:   "pending resets on recovery before firing",
			rule:   "null_depth_db>25 for 3",
			values: []float64{30, 30, 10, 30, 30, 30},
			want: []State{
				StatePending, StatePending, StateInactive,
				StatePending, StatePending, StateFiring,
			},
		},
		{
			name: "hysteresis: oscillation between clear and threshold stays firing",
			rule: "null_depth_db>25 for 2 clear 20",
			// 22 is healthy w.r.t. 25 but NOT w.r.t. clear 20, so the
			// firing alert must not resolve.
			values: []float64{30, 30, 22, 24, 22, 23, 22},
			want: []State{
				StatePending, StateFiring, StateFiring, StateFiring,
				StateFiring, StateFiring, StateFiring,
			},
		},
		{
			name: "hysteresis: resolve needs For consecutive clears",
			rule: "null_depth_db>25 for 2 clear 20",
			// One dip below clear is not enough; two consecutive are.
			values: []float64{30, 30, 15, 22, 15, 15},
			want: []State{
				StatePending, StateFiring, StateFiring,
				StateFiring, StateFiring, StateResolved,
			},
		},
		{
			name:   "less-than rule with clear above threshold",
			rule:   "min_snr_db<10 for 2 clear 15",
			values: []float64{20, 5, 5, 12, 12, 16, 16},
			want: []State{
				StateInactive, StatePending, StateFiring, StateFiring,
				StateFiring, StateFiring, StateResolved,
			},
		},
		{
			name:   "NaN freezes state",
			rule:   "null_depth_db>25 for 2",
			values: []float64{30, nan, nan, 30, nan, 30},
			want: []State{
				StatePending, StatePending, StatePending,
				StateFiring, StateFiring, StateFiring,
			},
		},
		{
			name:   "resolved lasts one sample even through NaN",
			rule:   "null_depth_db>25 clear 20",
			values: []float64{30, 10, nan},
			want:   []State{StateFiring, StateResolved, StateInactive},
		},
		{
			name:   "refire from resolved in one sample",
			rule:   "null_depth_db>25 clear 20",
			values: []float64{30, 10, 30},
			want:   []State{StateFiring, StateResolved, StateFiring},
		},
		{
			name:   "trend rising fires and clears",
			rule:   "cond_db rising over 3 for 2",
			values: []float64{1, 2, 3, 4, 5, 5, 5, 5},
			want: []State{
				StateInactive, StateInactive, StatePending, StateFiring,
				StateFiring, StateFiring, StateFiring, StateResolved,
			},
		},
		{
			name:   "trend falling direction",
			rule:   "search_best falling over 3",
			values: []float64{5, 4, 3},
			want:   []State{StateInactive, StateInactive, StateFiring},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rules := mustRules(t, c.rule)
			e := newEngine(rules)
			states, _ := feed(t, e, rules[0].Metric, c.values)
			for i := range c.want {
				if states[i] != c.want[i] {
					t.Fatalf("sample %d (value %v): state %v, want %v\nall: %v",
						i, c.values[i], states[i], c.want[i], states)
				}
			}
		})
	}
}

func TestAlertEventSequence(t *testing.T) {
	rules := mustRules(t, "null_depth_db>25 for 2 clear 20")
	e := newEngine(rules)
	_, events := feed(t, e, KPINullDepthDB, []float64{30, 30, 10, 10, 10})

	want := []struct{ from, to State }{
		{StateInactive, StatePending},
		{StatePending, StateFiring},
		{StateFiring, StateResolved},
		{StateResolved, StateInactive},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(events), events, len(want))
	}
	for i, w := range want {
		if events[i].From != w.from || events[i].To != w.to {
			t.Errorf("event %d = %v→%v, want %v→%v", i, events[i].From, events[i].To, w.from, w.to)
		}
	}
	snap := e.snapshot(99)
	if len(snap.Events) != len(want) {
		t.Errorf("snapshot carries %d events", len(snap.Events))
	}
	if snap.Rules[0].FiredCount != 1 {
		t.Errorf("fired count = %d", snap.Rules[0].FiredCount)
	}
}

func TestAlertEventHistoryBounded(t *testing.T) {
	rules := mustRules(t, "null_depth_db>25 clear 20")
	e := newEngine(rules)
	// Each period of (30, 10, 10) produces firing→resolved→inactive(+refire):
	// flood well past the cap.
	var vals []float64
	for i := 0; i < 3*eventCap; i++ {
		vals = append(vals, 30, 10, 10)
	}
	feed(t, e, KPINullDepthDB, vals)
	if n := len(e.events); n > eventCap {
		t.Errorf("event history %d exceeds cap %d", n, eventCap)
	}
}

// TestNoFiringOnHealthyConstantSeries is the property test of the issue:
// whatever the constant level (including noisy-constant float values),
// no default rule may ever leave the inactive state. This pins down the
// trend rules' float-noise epsilon: the least-squares slope of a
// constant series is never exactly zero in floating point.
func TestNoFiringOnHealthyConstantSeries(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		// Healthy levels: null depth below threshold, condition number
		// constant, regret 0, staleness small.
		level := rng.Float64()*20 - 10 // constant in [-10, 10)
		healthy := map[string]float64{
			KPIMinSNRdB:          20 + level,
			KPINullDepthDB:       math.Abs(level),          // < 25
			KPINullSubcarrier:    float64(int(level)) + 12, // constant
			KPINullDriftSC:       0,
			KPICondDB:            5 + level/100, // constant-ish per trial
			KPISearchBest:        level,
			KPISearchRegretDB:    0,
			KPIControlStalenessS: rng.Float64(), // < 10
		}
		e := newEngine(mustRules(t, "default"))
		hist := map[string]*ring[Point]{}
		for k := range healthy {
			hist[k] = newRing[Point](64)
		}
		for i := 0; i < 100; i++ {
			for k, v := range healthy {
				hist[k].push(Point{UnixMs: int64(i), Value: v})
			}
			kpi := func(name string) float64 {
				if v, ok := healthy[name]; ok {
					return v
				}
				return math.NaN()
			}
			window := func(name string, n int, dst []float64) []float64 {
				if s, ok := hist[name]; ok {
					return lastValues(s, n, dst)
				}
				return dst
			}
			if evs := e.eval(int64(i), kpi, window); len(evs) != 0 {
				t.Fatalf("trial %d sample %d: healthy constant series caused transitions %v (levels %v)",
					trial, i, evs, healthy)
			}
		}
		for _, rs := range e.rules {
			if rs.state != StateInactive {
				t.Fatalf("trial %d: rule %q ended %v on healthy constant series",
					trial, rs.rule.Name, rs.state)
			}
		}
	}
}

func TestLsSlope(t *testing.T) {
	if s := lsSlope([]float64{1, 2, 3, 4}); math.Abs(s-1) > 1e-12 {
		t.Errorf("slope of 1,2,3,4 = %v", s)
	}
	if s := lsSlope([]float64{4, 3, 2, 1}); math.Abs(s+1) > 1e-12 {
		t.Errorf("slope of 4,3,2,1 = %v", s)
	}
	if s := lsSlope([]float64{2, 2}); s != 0 {
		t.Errorf("slope of constant = %v", s)
	}
	if s := lsSlope([]float64{5}); s != 0 {
		t.Errorf("slope of singleton = %v", s)
	}
}

func TestStateJSON(t *testing.T) {
	for s, want := range map[State]string{
		StateInactive: `"inactive"`, StatePending: `"pending"`,
		StateFiring: `"firing"`, StateResolved: `"resolved"`,
	} {
		b, err := s.MarshalJSON()
		if err != nil || string(b) != want {
			t.Errorf("State(%d).MarshalJSON = %s, %v; want %s", s, b, err, want)
		}
	}
}

func TestNilEngine(t *testing.T) {
	var e *engine
	if evs := e.eval(0, func(string) float64 { return 1 }, nil); evs != nil {
		t.Errorf("nil engine eval = %v", evs)
	}
	snap := e.snapshot(0)
	if len(snap.Rules) != 0 || snap.Rules == nil || snap.Events == nil {
		t.Errorf("nil engine snapshot = %+v", snap)
	}
}
