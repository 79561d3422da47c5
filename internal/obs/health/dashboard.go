package health

import (
	_ "embed"
	"encoding/json"
	"io"
	"net/http"

	"press/internal/obs"
)

// dashboardHTML is the zero-dependency live dashboard: one self-
// contained page (inline CSS + JS, no external assets) that bootstraps
// from /health.json and /alerts, then follows the SSE /events stream's
// named "health" and "alert" events. Sparklines and the SNR spectrogram
// render on <canvas>; light and dark themes follow the OS preference.
//
//go:embed dashboard.html
var dashboardHTML []byte

// DashboardHandler serves the embedded dashboard page.
func DashboardHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_, _ = w.Write(dashboardHTML)
	}
}

// RegisterRoutes adds the channel-health endpoints to a telemetry
// server: /alerts (rule states and recent transitions), /health.json
// (KPI series and spectrogram), and /dashboard. A nil server is a no-op.
func RegisterRoutes(srv *obs.Server, mon *Monitor) {
	if srv == nil {
		return
	}
	srv.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeJSON(w, r, func(out io.Writer) error {
			return writeJSONIndent(out, mon.Alerts())
		})
	})
	srv.HandleFunc("/health.json", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeJSON(w, r, func(out io.Writer) error {
			return writeJSONIndent(out, mon.Snapshot())
		})
	})
	srv.HandleFunc("/dashboard", DashboardHandler())
}

func writeJSONIndent(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
