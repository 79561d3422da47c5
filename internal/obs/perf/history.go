package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"press/internal/obs"
	"press/internal/stats"
)

// NewRecord starts a canonical record stamped with the current date and
// the binary's build provenance. The caller fills Pkg/Description and
// the benchmarks.
func NewRecord(date string) Record {
	b := obs.ReadBuild()
	return Record{
		Schema:    RecordSchema,
		Date:      date,
		Commit:    b.Revision,
		Dirty:     b.Modified,
		GoVersion: b.GoVersion,
	}
}

// ReadHistory loads an append-only NDJSON history file: one Record per
// line, in append (chronological) order. Blank lines are skipped;
// records with an unknown newer schema are kept (fields we know still
// decode), but lines that fail to parse are an error — history is a
// curated, committed artifact.
func ReadHistory(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("perf: %s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendHistory appends records as NDJSON lines to path, creating the
// file (and its directory) if missing. Each line is one compact JSON
// document; the file is opened O_APPEND so concurrent appenders
// interleave at line granularity.
func AppendHistory(path string, recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if rec.Schema == 0 {
			rec.Schema = RecordSchema
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRecordFile loads one canonical pretty-printed BENCH_*.json
// document.
func ReadRecordFile(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	return rec, nil
}

// WriteRecordFile writes one canonical BENCH_*.json document, indented
// for human review in diffs.
func WriteRecordFile(path string, rec Record) error {
	if rec.Schema == 0 {
		rec.Schema = RecordSchema
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadResults loads benchmark records from path, accepting any of the
// three formats the toolchain produces: raw `go test -bench` text
// output, an NDJSON history file, or a single canonical JSON document.
// The format is sniffed from the first byte.
func LoadResults(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("perf: %s: empty input", path)
	}
	if trimmed[0] != '{' {
		return ParseBench(bytes.NewReader(data))
	}
	// JSON: a single indented document decodes as one record; otherwise
	// treat it as NDJSON.
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	var first Record
	if err := dec.Decode(&first); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	recs := []Record{first}
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("perf: %s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// SampleSet is one benchmark's ns/op (and allocation) samples resolved
// from a set of records — the unit the comparison engine works on.
type SampleSet struct {
	Pkg, Name string
	// Date is the source record's date — for baselines resolved from a
	// history file, the newest record that measured this benchmark.
	Date    string
	CPU     string
	Samples []BenchSample
}

// Key joins package and benchmark name into the comparison key.
func (s *SampleSet) Key() string { return s.Pkg + " " + s.Name }

// SampleSets resolves records into per-benchmark sample sets keyed by
// package + name. Records are scanned in order; a later record that
// measures the same benchmark replaces the earlier one (history files
// are append-only, so later = newer — the committed baseline is always
// the most recent measurement). Multiple -count samples within one
// record stay together as one set.
func SampleSets(recs []Record) map[string]*SampleSet {
	out := make(map[string]*SampleSet)
	for _, rec := range recs {
		for _, b := range rec.Benchmarks {
			if len(b.Samples) == 0 {
				continue
			}
			set := &SampleSet{
				Pkg: rec.Pkg, Name: b.Name, Date: rec.Date, CPU: rec.CPU,
				Samples: b.Samples,
			}
			out[set.Key()] = set
		}
	}
	return out
}

// SortedKeys returns the sample-set keys in deterministic order.
func SortedKeys(sets map[string]*SampleSet) []string {
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BaselineFiles globs the benchmark baseline artifacts under dir: the
// canonical BENCH_*.json documents (under bench/, with the repo root
// still honored for older layouts) plus the bench/history.ndjson store,
// sorted by name. Missing pieces are simply absent from the result.
func BaselineFiles(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "bench", "BENCH_*.json"))
	rootFiles, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	files = append(files, rootFiles...)
	sort.Strings(files)
	if hist := filepath.Join(dir, "bench", "history.ndjson"); fileExists(hist) {
		files = append(files, hist)
	}
	return files
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

// nsSamples extracts the ns/op values of a sample set.
func nsSamples(set *SampleSet) []float64 {
	out := make([]float64, len(set.Samples))
	for i, s := range set.Samples {
		out[i] = s.NsPerOp
	}
	return out
}

// allocMedian returns the median allocs/op and whether -benchmem data
// is present in the set.
func allocMedian(set *SampleSet) (float64, bool) {
	var vals []float64
	for _, s := range set.Samples {
		if s.HasMem {
			vals = append(vals, s.AllocsPerOp)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	return stats.Median(vals), true
}

// describeBaseline renders a short provenance string for gate output.
func describeBaseline(set *SampleSet) string {
	parts := []string{}
	if set.Date != "" {
		parts = append(parts, set.Date)
	}
	if set.CPU != "" {
		parts = append(parts, set.CPU)
	}
	return strings.Join(parts, ", ")
}
