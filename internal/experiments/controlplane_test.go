package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestControlPlaneComparisonOrdering(t *testing.T) {
	res, err := RunControlPlaneComparison(442)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Budgets shrink as actuation latency grows.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].WalkBudget > res.Rows[i-1].WalkBudget {
			t.Errorf("%s has a larger walking budget than %s",
				res.Rows[i].Medium, res.Rows[i-1].Medium)
		}
	}
	// The wired plane must capture more gain than the prototype: the
	// §4.2 argument in one comparison.
	var wired, proto float64
	for _, row := range res.Rows {
		switch row.Medium {
		case "wired":
			wired = row.GainAtWalkDB
		case "prototype":
			proto = row.GainAtWalkDB
		}
	}
	if wired <= proto {
		t.Errorf("wired gain %.2f not above prototype gain %.2f", wired, proto)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "ultrasound") {
		t.Error("print output incomplete")
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	rec, err := RecordSweep(442, 2)
	if err != nil {
		t.Fatal(err)
	}
	var saved, out bytes.Buffer
	if err := rec.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := ReplayAnalysis(&saved, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "64 configurations × 2 trials") {
		t.Errorf("replay output missing the record's shape:\n%s", s)
	}

	// The replayed headlines must be the live Figure 5/6 headlines of the
	// same seed and trial count, formatted alike.
	f5, err := RunFig5(Fig5Options{Seed: 442, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	f6, err := RunFig6(Fig6Options{Seed: 442, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("Figure 5 (from record): max null movement = %d subcarriers\n", f5.MaxMovement),
		fmt.Sprintf("Figure 5 (from record): fraction of pairs moving >3 subcarriers = %.3f\n", f5.FracBeyond3),
		fmt.Sprintf("Figure 6 (from record): fraction of changes ≥10 dB = %.3f\n", f6.FracChangeGE10),
		fmt.Sprintf("Figure 6 (from record): fraction of configs below 20 dB = %.3f\n", f6.FracMinBelow20),
	} {
		if !strings.Contains(s, want) {
			t.Errorf("replay disagrees with the live run: want %q in\n%s", want, s)
		}
	}
}

func TestRecordSweepValidation(t *testing.T) {
	if _, err := RecordSweep(442, 0); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	if err := ReplayAnalysis(strings.NewReader("not json"), &out); err == nil {
		t.Error("garbage record accepted")
	}
}
