package health

import (
	"fmt"
	"strconv"
	"strings"
)

// The KPI names rules can reference. Each is sampled once per health
// interval; see Monitor for how they are computed.
const (
	KPIMinSNRdB          = "min_snr_db"          // worst subcarrier SNR of the latest curve
	KPINullDepthDB       = "null_depth_db"       // median(SNR) − min(SNR), §3.2.1's null depth
	KPINullSubcarrier    = "null_subcarrier"     // subcarrier index of the deepest null
	KPINullDriftSC       = "null_drift_sc"       // |Δ null subcarrier| between samples (Fig 5's movement)
	KPICondDB            = "cond_db"             // median per-subcarrier MIMO condition number (Fig 8)
	KPISearchBest        = "search_best"         // current search best objective
	KPISearchRegretDB    = "search_regret_db"    // all-time best objective − current best
	KPIControlStalenessS = "control_staleness_s" // seconds since the last control-plane actuation
	KPILoopLatencyS      = "loop_latency_s"      // worst traced control-loop latency this interval
	KPILoopSlackS        = "loop_slack_s"        // worst deadline slack this interval (negative = missed)
	KPILoopMissRatio     = "loop_miss_ratio"     // deadline misses / traced loops this interval
	KPILoopBurnRate      = "loop_burn_rate"      // miss ratio / DefaultLoopErrorBudget (>1 = burning)
)

// KPINames lists every KPI a rule may watch, in display order.
var KPINames = []string{
	KPIMinSNRdB, KPINullDepthDB, KPINullSubcarrier, KPINullDriftSC,
	KPICondDB, KPISearchBest, KPISearchRegretDB, KPIControlStalenessS,
	KPILoopLatencyS, KPILoopSlackS, KPILoopMissRatio, KPILoopBurnRate,
}

func knownKPI(name string) bool {
	for _, k := range KPINames {
		if k == name {
			return true
		}
	}
	return false
}

// Op is a threshold rule's comparison.
type Op int

const (
	// OpGT breaches when the KPI exceeds the threshold.
	OpGT Op = iota
	// OpLT breaches when the KPI falls below the threshold.
	OpLT
)

func (o Op) String() string {
	if o == OpLT {
		return "<"
	}
	return ">"
}

// Kind distinguishes threshold rules from trend rules.
type Kind int

const (
	// KindThreshold compares the KPI's current value against a level.
	KindThreshold Kind = iota
	// KindTrend fits a least-squares slope over a window of samples and
	// breaches while the slope has the configured sign.
	KindTrend
)

// Trend is a trend rule's direction.
type Trend int

const (
	// TrendRising breaches on a positive slope.
	TrendRising Trend = iota
	// TrendFalling breaches on a negative slope.
	TrendFalling
)

func (t Trend) String() string {
	if t == TrendFalling {
		return "falling"
	}
	return "rising"
}

// Rule is one alert rule over a KPI series.
type Rule struct {
	// Name identifies the rule in /alerts and SSE events. Defaults to a
	// compact rendering of the rule expression.
	Name string
	// Metric is the KPI the rule watches (one of KPINames).
	Metric string
	Kind   Kind

	// Threshold rules: breach while `value Op Threshold`; once firing,
	// the rule only counts as healthy again when the value is back on
	// the healthy side of Clear (the hysteresis level — for OpGT, Clear ≤
	// Threshold; for OpLT, Clear ≥ Threshold; default Clear == Threshold).
	Op        Op
	Threshold float64
	Clear     float64

	// Trend rules: direction and sample window of the slope fit.
	Trend  Trend
	Window int

	// For is how many consecutive breaching samples move the rule from
	// pending to firing, and how many consecutive healthy samples move it
	// from firing to resolved (≥ 1; default 1).
	For int
}

// Expr renders the rule back into its -alert-rules form.
func (r Rule) Expr() string {
	var b strings.Builder
	if r.Kind == KindTrend {
		fmt.Fprintf(&b, "%s %s over %d", r.Metric, r.Trend, r.Window)
	} else {
		fmt.Fprintf(&b, "%s%s%s", r.Metric, r.Op, formatNum(r.Threshold))
		if r.Clear != r.Threshold {
			fmt.Fprintf(&b, " clear %s", formatNum(r.Clear))
		}
	}
	if r.For > 1 {
		fmt.Fprintf(&b, " for %d", r.For)
	}
	return b.String()
}

func formatNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// DefaultRules is the built-in rule set behind `-alert-rules default`:
// a deep persistent frequency null (the paper's §3.2.1 metric), a rising
// MIMO condition number (Figure 8's failure direction), a search run
// regressing from its best, a stalled control plane, and a control loop
// burning its coherence-deadline error budget. A rule over an absent
// subsystem sees NaN and stays frozen.
const DefaultRules = "null_depth_db>25 for 3 clear 20; " +
	"cond_db rising over 8; " +
	"search_regret_db>3 for 2; " +
	"control_staleness_s>10 for 2; " +
	"loop_burn_rate>1 for 2"

// ParseRules parses a rule list: rules separated by ';', each either a
// threshold rule
//
//	[name=]metric>LEVEL [clear LEVEL] [for N]
//	[name=]metric<LEVEL [clear LEVEL] [for N]
//
// or a trend rule
//
//	[name=]metric rising|falling [over N] [for N]
//
// The literal "default" — as the whole string or as one list entry, so
// custom rules can extend the built-in set ("mine=null_depth_db>30;
// default") — expands to DefaultRules. Empty input yields no rules.
// Metrics must name a known KPI.
func ParseRules(s string) ([]Rule, error) {
	var parts []string
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) == "default" {
			parts = append(parts, strings.Split(DefaultRules, ";")...)
			continue
		}
		parts = append(parts, part)
	}
	var rules []Rule
	seen := map[string]bool{}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("health: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		rules = append(rules, r)
	}
	return rules, nil
}

func parseRule(s string) (Rule, error) {
	r := Rule{For: 1}
	expr := s
	if name, rest, ok := strings.Cut(s, "="); ok && !strings.ContainsAny(name, "<> ") {
		r.Name = strings.TrimSpace(name)
		expr = strings.TrimSpace(rest)
	}

	if i := strings.IndexAny(expr, "<>"); i >= 0 {
		// Threshold rule.
		r.Kind = KindThreshold
		r.Metric = strings.TrimSpace(expr[:i])
		if expr[i] == '<' {
			r.Op = OpLT
		}
		rest := strings.Fields(expr[i+1:])
		if len(rest) == 0 {
			return r, fmt.Errorf("health: rule %q: missing threshold", s)
		}
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return r, fmt.Errorf("health: rule %q: bad threshold %q", s, rest[0])
		}
		r.Threshold, r.Clear = v, v
		if err := parseModifiers(s, rest[1:], &r, true); err != nil {
			return r, err
		}
		if r.Op == OpGT && r.Clear > r.Threshold {
			return r, fmt.Errorf("health: rule %q: clear level %v above threshold %v", s, r.Clear, r.Threshold)
		}
		if r.Op == OpLT && r.Clear < r.Threshold {
			return r, fmt.Errorf("health: rule %q: clear level %v below threshold %v", s, r.Clear, r.Threshold)
		}
	} else {
		// Trend rule.
		fields := strings.Fields(expr)
		if len(fields) < 2 {
			return r, fmt.Errorf("health: rule %q: want metric>LEVEL or metric rising|falling", s)
		}
		r.Kind = KindTrend
		r.Metric = fields[0]
		r.Window = 5
		switch fields[1] {
		case "rising":
			r.Trend = TrendRising
		case "falling":
			r.Trend = TrendFalling
		default:
			return r, fmt.Errorf("health: rule %q: want rising or falling, got %q", s, fields[1])
		}
		if err := parseModifiers(s, fields[2:], &r, false); err != nil {
			return r, err
		}
		if r.Window < 2 {
			return r, fmt.Errorf("health: rule %q: trend window must be ≥ 2", s)
		}
	}

	if !knownKPI(r.Metric) {
		return r, fmt.Errorf("health: rule %q: unknown KPI %q (known: %s)",
			s, r.Metric, strings.Join(KPINames, ", "))
	}
	if r.For < 1 {
		return r, fmt.Errorf("health: rule %q: 'for' must be ≥ 1", s)
	}
	if r.Name == "" {
		r.Name = r.Expr()
	}
	return r, nil
}

// parseModifiers consumes the trailing "for N", "clear X", "over N"
// keyword pairs of a rule.
func parseModifiers(rule string, fields []string, r *Rule, threshold bool) error {
	for i := 0; i < len(fields); i += 2 {
		if i+1 >= len(fields) {
			return fmt.Errorf("health: rule %q: dangling %q", rule, fields[i])
		}
		key, val := fields[i], fields[i+1]
		switch {
		case key == "for":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("health: rule %q: bad 'for' count %q", rule, val)
			}
			r.For = n
		case key == "clear" && threshold:
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("health: rule %q: bad 'clear' level %q", rule, val)
			}
			r.Clear = v
		case key == "over" && !threshold:
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("health: rule %q: bad 'over' window %q", rule, val)
			}
			r.Window = n
		default:
			return fmt.Errorf("health: rule %q: unknown modifier %q", rule, key)
		}
	}
	return nil
}
