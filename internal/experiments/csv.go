package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvWrite writes rows under a header.
func csvWrite(w io.Writer, header []string, rows [][]string) error {
	if err := csv.NewWriter(w).WriteAll(append([][]string{header}, rows...)); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	return nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteCSV emits Figure 4 as long-form rows: placement, subcarrier, and
// the two selected configurations' SNR.
func (r *Fig4Result) WriteCSV(w io.Writer) error {
	header := []string{"placement", "config_a", "config_b", "subcarrier", "snr_a_db", "snr_b_db"}
	var rows [][]string
	for _, p := range r.Placements {
		for k := range p.SNRA {
			rows = append(rows, []string{
				p.Label, p.ConfigA, p.ConfigB, strconv.Itoa(k), f(p.SNRA[k]), f(p.SNRB[k]),
			})
		}
	}
	return csvWrite(w, header, rows)
}

// WriteCSV emits Figure 5's per-trial CCDF curves as long-form rows.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	header := []string{"trial", "movement_subcarriers", "ccdf"}
	var rows [][]string
	for t, e := range r.PerTrial {
		for m := 0; m <= r.MaxMovement; m++ {
			rows = append(rows, []string{
				strconv.Itoa(t), strconv.Itoa(m), f(e.CCDF(float64(m) - 0.5)),
			})
		}
	}
	return csvWrite(w, header, rows)
}

// WriteCSV emits both Figure 6 panels: panel "delta" (pooled CCDF of
// min-SNR changes) and panel "min" (per-trial CCDF of min SNR).
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	header := []string{"panel", "trial", "x_db", "ccdf"}
	var rows [][]string
	for _, p := range r.DeltaMin.CCDFPoints() {
		rows = append(rows, []string{"delta", "-", f(p.X), f(p.Y)})
	}
	for t, e := range r.PerTrialMin {
		for _, p := range e.CCDFPoints() {
			rows = append(rows, []string{"min", strconv.Itoa(t), f(p.X), f(p.Y)})
		}
	}
	return csvWrite(w, header, rows)
}

// WriteCSV emits Figure 7's two SNR curves.
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	header := []string{"subcarrier", "snr_lower_cfg_db", "snr_upper_cfg_db"}
	var rows [][]string
	for k := range r.SNRLower {
		rows = append(rows, []string{strconv.Itoa(k + 1), f(r.SNRLower[k]), f(r.SNRUpper[k])})
	}
	return csvWrite(w, header, rows)
}

// WriteCSV emits Figure 8's best and worst condition-number CDFs plus the
// per-config medians.
func (r *Fig8Result) WriteCSV(w io.Writer) error {
	header := []string{"series", "config", "x_cond_db", "cdf"}
	var rows [][]string
	emit := func(series string, cfg Fig8Config) {
		for _, p := range cfg.CDF.Points() {
			rows = append(rows, []string{series, cfg.Config, f(p.X), f(p.Y)})
		}
	}
	emit("best", r.Configs[r.BestIdx])
	emit("worst", r.Configs[r.WorstIdx])
	for _, c := range r.Configs {
		rows = append(rows, []string{"median", c.Config, f(c.MedianDB), ""})
	}
	return csvWrite(w, header, rows)
}
