package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestAllPrinters runs every Registry entry at reduced size and checks
// that its printed result, and its CSV export where it has one, carry
// the figure's key content: the rows and series cmd/pressim shows the
// user. A new entry must add its expectations here.
func TestAllPrinters(t *testing.T) {
	spec := RunSpec{Trials: 2, Placements: 2, Snapshots: 3, Reps: 1, Budget: 80, Loops: 2}
	prints := map[string][]string{
		"los":          {"Line-of-sight", "paper: < 2 dB", "Active elements"},
		"fig4":         {"Figure 4", "Placement (a)", "paper: 18.6 dB"},
		"fig5":         {"CCDF of null movement", "trial0", "paper: ≈9"},
		"fig6":         {"Figure 6 left", "Figure 6 right", "paper: ≈0.38"},
		"fig7":         {"opposite frequency selectivity", "contrast"},
		"fig8":         {"condition number", "Best (lowest) median", "paper: ≈1.5 dB"},
		"coherence":    {"prototype budget", "4.992s"},
		"controlplane": {"ultrasound", "gain@walk"},
		"staleness":    {"regret dB", "static"},
		"scaling":      {"MIMO dimension scaling", "spread dB"},
		"arrayscale":   {"Array scaling", "hierarch"},
		"faults":       {"Fault tolerance", "measured-loop"},
		"ablation":     {"Ablation A1", "phases", "\n\nAblation A2", "parabolic", "omni", "\n\nAblation A3", "\n\nAblation A4", "SPSA", "quantized"},
		"demo":         {"Control-loop deadline demo", "deadline none", "loops 2"},
		"session":      {"baseline_db", "session"},
	}
	csvs := map[string][]string{
		"fig4": {"placement,config_a", "(a)"},
		"fig5": {"trial,movement_subcarriers,ccdf"},
		"fig6": {"panel,trial,x_db,ccdf", "delta"},
		"fig7": {"subcarrier,snr_lower_cfg_db"},
		"fig8": {"series,config,x_cond_db,cdf", "best", "worst"},
	}
	expect := func(t *testing.T, what, got string, wants []string) {
		t.Helper()
		if wants == nil {
			t.Errorf("no expected %s content: add the entry's key content to TestAllPrinters", what)
		}
		for _, w := range wants {
			if !strings.Contains(got, w) {
				t.Errorf("%s missing %q:\n%.400s", what, w, got)
			}
		}
	}
	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.Print(&buf)
			expect(t, "output", buf.String(), prints[e.Name])
			c, ok := res.(interface{ WriteCSV(io.Writer) error })
			if !ok {
				if csvs[e.Name] != nil {
					t.Error("result has no WriteCSV")
				}
				return
			}
			buf.Reset()
			if err := c.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			expect(t, "csv", buf.String(), csvs[e.Name])
		})
	}
}

// TestDefaultOptionConstructors pins the calibrated defaults so an
// accidental edit cannot silently change every reproduced figure.
func TestDefaultOptionConstructors(t *testing.T) {
	if o := DefaultFig4(); o.Placements != 8 || o.Trials != 10 || o.BaseSeed != 438 {
		t.Errorf("DefaultFig4 = %+v", o)
	}
	if o := DefaultFig5(); o.Seed != 442 || o.Trials != 10 {
		t.Errorf("DefaultFig5 = %+v", o)
	}
	if o := DefaultFig6(); o.Seed != 442 || o.Trials != 10 {
		t.Errorf("DefaultFig6 = %+v", o)
	}
	if o := DefaultFig7(); o.Seed != 700 || o.MinContrastDB != 3 {
		t.Errorf("DefaultFig7 = %+v", o)
	}
	if o := DefaultFig8(); o.Seed != 822 || o.Snapshots != 50 || o.Repetitions != 5 {
		t.Errorf("DefaultFig8 = %+v", o)
	}
	if o := DefaultLoS(); o.Seed != 441 {
		t.Errorf("DefaultLoS = %+v", o)
	}
	if o := DefaultMIMO(7); o.NumElements != 3 || o.Snapshots != 50 {
		t.Errorf("DefaultMIMO = %+v", o)
	}
	if s := DefaultSISO(7); s.NumElements != 3 || s.ScattererAmp != 35 || s.NumScatterers != 10 {
		t.Errorf("DefaultSISO = %+v", s)
	}
}
