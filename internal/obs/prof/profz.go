package prof

import (
	"encoding/json"
	"io"
	"net/http"

	"press/internal/obs"
)

// ProfzDoc is the /profz response: the phase-accounting totals (exact,
// instrumented), the live view of "where does the time go". Function-
// level profiles come from -cpuprofile/-memprofile and go tool pprof.
type ProfzDoc struct {
	// UptimeSeconds is how long the collector has been accumulating.
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// Phases is the cumulative per-phase work accounting (absent when
	// accounting is off).
	Phases []PhaseStatus `json:"phases,omitempty"`
}

// PhaseStatus is one phase's totals with derived per-call cost.
type PhaseStatus struct {
	Phase string `json:"phase"`
	Root  bool   `json:"root,omitempty"`
	Ns    int64  `json:"ns"`
	Calls int64  `json:"calls"`
	Bytes int64  `json:"bytes,omitempty"`
	// NsPerCall is Ns/Calls, the headline unit cost.
	NsPerCall float64          `json:"ns_per_call,omitempty"`
	Aux       map[string]int64 `json:"aux,omitempty"`
}

// ProfzHandler serves the /profz document for a collector (which may
// be nil). JSON gets the same gzip + Cache-Control: no-store
// treatment as every other JSON endpoint on the telemetry server.
func ProfzHandler(c *Collector) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc := ProfzDoc{}
		if c != nil {
			doc.UptimeSeconds = c.Uptime().Seconds()
			for _, pc := range c.Snapshot() {
				st := PhaseStatus{
					Phase: pc.Phase, Root: RootPhaseName(pc.Phase),
					Ns: pc.Ns, Calls: pc.Calls, Bytes: pc.Bytes,
				}
				if pc.Calls > 0 {
					st.NsPerCall = float64(pc.Ns) / float64(pc.Calls)
				}
				if len(pc.Aux) > 0 {
					st.Aux = make(map[string]int64, len(pc.Aux))
					for _, a := range pc.Aux {
						st.Aux[a.Name] = a.Value
					}
				}
				doc.Phases = append(doc.Phases, st)
			}
		}
		obs.ServeJSON(w, r, func(out io.Writer) error {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		})
	}
}

// RegisterRoutes adds the /profz endpoint to a telemetry server.
func RegisterRoutes(srv *obs.Server, c *Collector) {
	srv.HandleFunc("/profz", ProfzHandler(c))
}
