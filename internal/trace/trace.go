// Package trace records measurement campaigns — the sweeps behind the
// paper's figures — to a portable JSON form, so a sweep measured once
// (or on real hardware, eventually) can be re-analyzed offline: null
// statistics, min-SNR distributions, alternative objectives, all without
// re-measuring. Figures 4–6 are this workflow, one dataset and three
// analyses: internal/experiments' fig4Analysis, fig5Analysis and
// fig6Analysis read only a Record, live or loaded by pressim -exp replay.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"press/internal/obs"
	"press/internal/radio"
)

// FormatVersion identifies the record schema; Load rejects unknown
// versions rather than guessing.
const FormatVersion = 1

// Record is one recorded sweep campaign.
type Record struct {
	// Version is the schema version (FormatVersion).
	Version int `json:"version"`
	// Description is free-form provenance ("fig4 placement (e), seed 442").
	Description string `json:"description,omitempty"`
	// CenterHz and SpacingHz describe the measurement grid.
	CenterHz  float64 `json:"center_hz"`
	SpacingHz float64 `json:"spacing_hz"`
	// ConfigNames holds the paper-notation name per configuration index.
	ConfigNames []string `json:"config_names"`
	// Trials holds the measured sweeps.
	Trials []Trial `json:"trials"`
}

// Trial is one pass over all configurations.
type Trial struct {
	Measurements []Measurement `json:"measurements"`
}

// Measurement is one configuration's measured per-subcarrier SNR.
type Measurement struct {
	ConfigIdx int     `json:"config"`
	AtSeconds float64 `json:"at_s"`
	// TraceID joins the row against its "radio/measure" span in a Chrome
	// trace export captured in the same run (obs.FormatTraceID form;
	// empty when the sweep ran without -trace).
	TraceID string    `json:"trace_id,omitempty"`
	SNRdB   []float64 `json:"snr_db"`
}

// FromSweepTrials converts a radio.SweepTrials result into a Record.
func FromSweepTrials(link *radio.Link, trials [][]radio.Measurement, description string) (*Record, error) {
	if link.Array == nil {
		return nil, fmt.Errorf("trace: link has no array")
	}
	rec := &Record{
		Version:     FormatVersion,
		Description: description,
		CenterHz:    link.Grid.CenterHz,
		SpacingHz:   link.Grid.SpacingHz,
	}
	n := link.Array.NumConfigs()
	rec.ConfigNames = make([]string, n)
	for idx := 0; idx < n; idx++ {
		rec.ConfigNames[idx] = link.Array.String(link.Array.ConfigAt(idx))
	}
	for ti, tr := range trials {
		trial := Trial{}
		for _, m := range tr {
			if m.ConfigIdx < 0 || m.ConfigIdx >= n {
				return nil, fmt.Errorf("trace: trial %d references config %d of %d", ti, m.ConfigIdx, n)
			}
			trial.Measurements = append(trial.Measurements, Measurement{
				ConfigIdx: m.ConfigIdx,
				AtSeconds: m.At.Seconds(),
				TraceID:   obs.FormatTraceID(m.TraceID),
				SNRdB:     append([]float64(nil), m.CSI.SNRdB...),
			})
		}
		rec.Trials = append(rec.Trials, trial)
	}
	return rec, nil
}

// Save writes the record as indented JSON.
func (r *Record) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	return nil
}

// Load parses and validates a record.
func Load(rd io.Reader) (*Record, error) {
	var rec Record
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}

// Validate checks the record's internal consistency: some measurement,
// no configuration twice in one trial, one subcarrier count throughout.
func (r *Record) Validate() error {
	if r.Version != FormatVersion {
		return fmt.Errorf("trace: unsupported version %d (want %d)", r.Version, FormatVersion)
	}
	if r.CenterHz <= 0 || r.SpacingHz <= 0 {
		return fmt.Errorf("trace: non-positive grid parameters")
	}
	if len(r.ConfigNames) == 0 {
		return fmt.Errorf("trace: no configurations")
	}
	var nsc = -1
	for ti, tr := range r.Trials {
		seen := make([]bool, len(r.ConfigNames))
		for mi, m := range tr.Measurements {
			if m.ConfigIdx < 0 || m.ConfigIdx >= len(r.ConfigNames) {
				return fmt.Errorf("trace: trial %d measurement %d: config %d out of range", ti, mi, m.ConfigIdx)
			}
			if seen[m.ConfigIdx] {
				return fmt.Errorf("trace: trial %d measurement %d: config %d measured twice", ti, mi, m.ConfigIdx)
			}
			seen[m.ConfigIdx] = true
			if len(m.SNRdB) == 0 {
				return fmt.Errorf("trace: trial %d measurement %d: empty SNR", ti, mi)
			}
			if nsc == -1 {
				nsc = len(m.SNRdB)
			} else if len(m.SNRdB) != nsc {
				return fmt.Errorf("trace: trial %d measurement %d: %d subcarriers, want %d", ti, mi, len(m.SNRdB), nsc)
			}
		}
	}
	if nsc == -1 {
		return fmt.Errorf("trace: no measurements")
	}
	return nil
}

// Curves returns the per-configuration SNR curves of one trial, indexed
// by configuration — the shape the statistics in internal/stats consume.
// Configurations not measured in the trial yield nil entries.
func (r *Record) Curves(trial int) ([][]float64, error) {
	if trial < 0 || trial >= len(r.Trials) {
		return nil, fmt.Errorf("trace: trial %d of %d", trial, len(r.Trials))
	}
	out := make([][]float64, len(r.ConfigNames))
	for _, m := range r.Trials[trial].Measurements {
		out[m.ConfigIdx] = m.SNRdB
	}
	return out, nil
}

// NumSubcarriers reports the per-measurement SNR vector length (0 for an
// empty record).
func (r *Record) NumSubcarriers() int {
	for _, tr := range r.Trials {
		for _, m := range tr.Measurements {
			return len(m.SNRdB)
		}
	}
	return 0
}
