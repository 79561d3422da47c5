package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"press/internal/obs/prof"
)

// spanKind names the layer boundary a span wraps. Every span is recorded
// in this package, around a call into one layer's public API.
type spanKind uint8

const (
	spanEpisode spanKind = iota
	spanBuild
	spanSweep
	spanMeasure
	spanMIMOMeasure
	spanCond
	spanPairDiff
	spanMedian
	spanSearch
	spanEval
	spanScore
	spanActuate
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanEpisode:     "benchmark.episode",
	spanBuild:       "experiments.build",
	spanSweep:       "radio.sweep",
	spanMeasure:     "radio.measure",
	spanMIMOMeasure: "radio.mimo_measure",
	spanCond:        "mimo.cond",
	spanPairDiff:    "stats.pairdiff",
	spanMedian:      "stats.median",
	spanSearch:      "control.search",
	spanEval:        "control.eval",
	spanScore:       "control.score",
	spanActuate:     "controlplane.actuate",
}

// layer returns the module a span kind belongs to: the part of its name
// before the first dot.
func (k spanKind) layer() string {
	name := spanNames[k]
	return name[:strings.IndexByte(name, '.')]
}

// span is one recorded call. Times are nanoseconds since the tracer
// started; Parent indexes the enclosing span (-1 for a root) and Episode
// is shared by every span of one episode (-1 during set-up).
type span struct {
	Start, End int64
	Parent     int32
	Episode    int32
	Kind       spanKind
}

// tracer keeps spans in memory for one goroutine. All methods on a nil
// tracer are no-ops, which is how the untraced run pays only a pointer
// check per boundary.
type tracer struct {
	t0      time.Time
	spans   []span
	open    int32
	episode int32
	// prof receives the program's own phase accounting through the public
	// Link.Prof and MIMOLink.Prof fields.
	prof *prof.Collector
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: -1, episode: -1, prof: prof.NewCollector()}
}

func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Start: int64(time.Since(t.t0)), Parent: t.open, Episode: t.episode, Kind: k})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.open = s.Parent
}

// beginEpisode opens the root span of episode i; every span until the
// matching end carries i as its episode id.
func (t *tracer) beginEpisode(i int) int32 {
	if t == nil {
		return -1
	}
	t.episode = int32(i)
	return t.begin(spanEpisode)
}

func (t *tracer) endEpisode(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.episode = -1
}

// profCollector returns the phase collector to attach to links, nil when
// tracing is off.
func (t *tracer) profCollector() *prof.Collector {
	if t == nil {
		return nil
	}
	return t.prof
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children are visited in start order (the order
// they were recorded), so a running high-water mark per parent gives the
// length of the union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	reach := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		reach[i] = s.Start
	}
	for _, c := range spans {
		if c.Parent < 0 {
			continue
		}
		lo := max(c.Start, reach[c.Parent])
		hi := min(c.End, spans[c.Parent].End)
		if hi > lo {
			self[c.Parent] -= hi - lo
			reach[c.Parent] = hi
		}
	}
	return self
}

// durations returns the durations (ns) of every span of kind k.
func durations(spans []span, k spanKind) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == k {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer  string
	SelfNs int64
	Calls  int
}

// layerTable sums self time by layer over every span.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byLayer := map[string]*layerRow{}
	for i, s := range spans {
		l := s.Kind.layer()
		r := byLayer[l]
		if r == nil {
			r = &layerRow{Layer: l}
			byLayer[l] = r
		}
		r.SelfNs += self[i]
		r.Calls++
	}
	rows := make([]layerRow, 0, len(byLayer))
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNs > rows[j].SelfNs })
	return rows
}

// printLayerTable writes the self-time table.
func printLayerTable(w io.Writer, spans []span) {
	rows := layerTable(spans)
	var total int64
	for _, r := range rows {
		total += r.SelfNs
	}
	fmt.Fprintf(w, "  %-14s %12s %8s %10s\n", "layer", "self_ms", "share", "calls")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %12.1f %7.1f%% %10d\n", r.Layer, float64(r.SelfNs)/1e6, 100*float64(r.SelfNs)/float64(max(total, 1)), r.Calls)
	}
}

// writeSpans writes the spans as a JSON array to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type out struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Episode int32  `json:"episode"`
	}
	bw.WriteString("[\n")
	for i, s := range spans {
		if i > 0 {
			bw.WriteString(",")
		}
		if err := enc.Encode(out{spanNames[s.Kind], s.Start, s.End, s.Parent, s.Episode}); err != nil {
			f.Close()
			return err
		}
	}
	bw.WriteString("]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
