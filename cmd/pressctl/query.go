package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"press/internal/obs/tsdb"
)

// runQuery answers instant and range queries against a metrics-history
// directory written by a -tsdb-dir run — the offline read path: the
// store is opened read-only, so it works on a live run's directory and
// after the writing process is gone alike.
//
//	pressctl query -tsdb-dir d 'rate(controlplane_acks_total[1m])'
//	pressctl query -tsdb-dir d -last 10m -step 30s 'health_min_snr_db'
//	pressctl query -tsdb-dir d -session room-3 -o ndjson 'radio_csi_measurements_total'
//
// Without -at/-start/-end the evaluation time defaults to the store's
// data extent (not the wall clock), so querying an old run just works.
func runQuery(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dir := fs.String("tsdb-dir", "", "metrics-history directory (as written by -tsdb-dir)")
	session := fs.String("session", "", "restrict to one session (overrides any {session=...} in the expression)")
	at := fs.String("at", "", "instant evaluation time (unix seconds or RFC3339; default: newest stored sample)")
	start := fs.String("start", "", "range start (unix seconds or RFC3339; implies a range query)")
	end := fs.String("end", "", "range end (unix seconds or RFC3339; implies a range query)")
	last := fs.Duration("last", 0, "range over the trailing window ending at -end (implies a range query)")
	step := fs.Duration("step", 10*time.Second, "range query resolution")
	output := fs.String("o", "table", "output format: table or ndjson")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("query: -tsdb-dir is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: exactly one query expression expected, got %d", fs.NArg())
	}
	if *output != "table" && *output != "ndjson" {
		return fmt.Errorf("query: -o must be table or ndjson, got %q", *output)
	}
	expr := fs.Arg(0)
	if *session != "" {
		rewritten, err := tsdb.WithSession(expr, *session)
		if err != nil {
			return err
		}
		expr = rewritten
	}

	s, err := tsdb.Open(tsdb.Options{Dir: *dir, ReadOnly: true})
	if err != nil {
		return err
	}
	defer s.Close()
	minMs, maxMs := s.Extent()

	if *start == "" && *end == "" && *last == 0 {
		t := time.UnixMilli(maxMs)
		if *at != "" {
			if t, err = parseQueryTime(*at); err != nil {
				return err
			}
		} else if maxMs == 0 {
			t = time.Now()
		}
		samples, err := s.Instant(expr, t)
		if err != nil {
			return err
		}
		return writeInstant(w, *output, samples)
	}

	// Range mode. Missing endpoints default to the stored data's extent
	// so `-last 10m` or a bare `-start` alone both do the obvious thing.
	endT := time.UnixMilli(maxMs)
	if *end != "" {
		if endT, err = parseQueryTime(*end); err != nil {
			return err
		}
	} else if maxMs == 0 {
		endT = time.Now()
	}
	var startT time.Time
	switch {
	case *start != "":
		if startT, err = parseQueryTime(*start); err != nil {
			return err
		}
	case *last > 0:
		startT = endT.Add(-*last)
	default:
		startT = time.UnixMilli(minMs)
	}
	series, err := s.Range(expr, startT, endT, *step)
	if err != nil {
		return err
	}
	return writeRange(w, *output, series)
}

// parseQueryTime accepts unix seconds (fractional ok) or RFC3339.
func parseQueryTime(s string) (time.Time, error) {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return time.UnixMilli(int64(f * 1000)), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("query: bad time %q (want unix seconds or RFC3339)", s)
}

func seriesLabel(l tsdb.Labels) string {
	if l.Session != "" {
		return fmt.Sprintf("%s{session=%q}", l.Name, l.Session)
	}
	return l.Name
}

func writeInstant(w io.Writer, format string, samples []tsdb.Sample) error {
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Labels.Name != samples[j].Labels.Name {
			return samples[i].Labels.Name < samples[j].Labels.Name
		}
		return samples[i].Labels.Session < samples[j].Labels.Session
	})
	if format == "ndjson" {
		enc := json.NewEncoder(w)
		for _, smp := range samples {
			rec := struct {
				Metric tsdb.Labels `json:"metric"`
				UnixMs int64       `json:"unix_ms"`
				Value  float64     `json:"value"`
			}{smp.Labels, smp.T, smp.V}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if len(samples) == 0 {
		fmt.Fprintln(w, "no data")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SERIES\tTIME\tVALUE")
	for _, smp := range samples {
		fmt.Fprintf(tw, "%s\t%s\t%g\n", seriesLabel(smp.Labels),
			time.UnixMilli(smp.T).Format(time.RFC3339), smp.V)
	}
	return tw.Flush()
}

func writeRange(w io.Writer, format string, series []tsdb.Series) error {
	sort.Slice(series, func(i, j int) bool {
		if series[i].Labels.Name != series[j].Labels.Name {
			return series[i].Labels.Name < series[j].Labels.Name
		}
		return series[i].Labels.Session < series[j].Labels.Session
	})
	if format == "ndjson" {
		enc := json.NewEncoder(w)
		for _, sr := range series {
			for _, p := range sr.Points {
				rec := struct {
					Metric tsdb.Labels `json:"metric"`
					UnixMs int64       `json:"unix_ms"`
					Value  float64     `json:"value"`
				}{sr.Labels, p.T, p.V}
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if len(series) == 0 {
		fmt.Fprintln(w, "no data")
		return nil
	}
	for i, sr := range series {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s (%d points)\n", seriesLabel(sr.Labels), len(sr.Points))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, p := range sr.Points {
			fmt.Fprintf(tw, "  %s\t%g\n", time.UnixMilli(p.T).Format(time.RFC3339), p.V)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
