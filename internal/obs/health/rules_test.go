package health

import (
	"strings"
	"testing"
)

func TestParseRulesThreshold(t *testing.T) {
	rules, err := ParseRules("null_depth_db>25 for 3 clear 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("got %d rules", len(rules))
	}
	r := rules[0]
	if r.Kind != KindThreshold || r.Metric != KPINullDepthDB || r.Op != OpGT {
		t.Errorf("rule = %+v", r)
	}
	if r.Threshold != 25 || r.Clear != 20 || r.For != 3 {
		t.Errorf("levels = %+v", r)
	}
	if r.Name != r.Expr() {
		t.Errorf("default name %q != expr %q", r.Name, r.Expr())
	}
}

func TestParseRulesForms(t *testing.T) {
	cases := []struct {
		in      string
		wantN   int
		wantErr string
	}{
		{"", 0, ""},
		{"default", 5, ""},
		{DefaultRules, 5, ""},
		{"min_snr_db<10", 1, ""},
		{"lowsnr=min_snr_db<10 for 2", 1, ""},
		{"cond_db rising", 1, ""},
		{"cond_db falling over 12 for 2", 1, ""},
		{"a=min_snr_db<10; b=cond_db rising", 2, ""},
		{"min_snr_db<10;; ;cond_db rising", 2, ""},
		{"deep=null_depth_db>30 for 2; default", 6, ""},
		{"default; default", 0, "duplicate rule name"},

		{"bogus_kpi>1", 0, "unknown KPI"},
		{"min_snr_db<", 0, "missing threshold"},
		{"min_snr_db<abc", 0, "bad threshold"},
		{"min_snr_db", 0, "want metric>LEVEL"},
		{"min_snr_db sideways", 0, "rising or falling"},
		{"min_snr_db<10 for 0", 0, "'for' must be"},
		{"min_snr_db<10 for", 0, "dangling"},
		{"min_snr_db<10 clear 5", 0, "below threshold"},
		{"null_depth_db>25 clear 30", 0, "above threshold"},
		{"cond_db rising over 1", 0, "window must be"},
		{"cond_db rising clear 3", 0, "unknown modifier"},
		{"a=min_snr_db<10; a=cond_db rising", 0, "duplicate rule name"},
	}
	for _, c := range cases {
		rules, err := ParseRules(c.in)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ParseRules(%q) error: %v", c.in, err)
				continue
			}
			if len(rules) != c.wantN {
				t.Errorf("ParseRules(%q) = %d rules, want %d", c.in, len(rules), c.wantN)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseRules(%q) error = %v, want %q", c.in, err, c.wantErr)
		}
	}
}

func TestParseRulesExprRoundTrip(t *testing.T) {
	rules, err := ParseRules("default")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		again, err := ParseRules(r.Expr())
		if err != nil {
			t.Fatalf("re-parse %q: %v", r.Expr(), err)
		}
		if len(again) != 1 || again[0].Expr() != r.Expr() {
			t.Errorf("round trip %q -> %q", r.Expr(), again[0].Expr())
		}
	}
}

func TestParseRulesNamedRule(t *testing.T) {
	rules, err := ParseRules("deep-null=null_depth_db>25 for 3")
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Name != "deep-null" {
		t.Errorf("name = %q", rules[0].Name)
	}
	if rules[0].Clear != 25 {
		t.Errorf("clear defaults to threshold, got %v", rules[0].Clear)
	}
}

func TestDefaultRulesParse(t *testing.T) {
	rules, err := ParseRules(DefaultRules)
	if err != nil {
		t.Fatalf("DefaultRules must parse: %v", err)
	}
	metrics := map[string]bool{}
	for _, r := range rules {
		metrics[r.Metric] = true
	}
	for _, want := range []string{KPINullDepthDB, KPICondDB, KPISearchRegretDB, KPIControlStalenessS, KPILoopBurnRate} {
		if !metrics[want] {
			t.Errorf("DefaultRules missing a %s rule", want)
		}
	}
}
