package scope

import (
	"encoding/json"
	"io"
	"net/http"

	"press/internal/obs"
)

// sessionsPayload is the /sessions response body.
type sessionsPayload struct {
	Sessions []Info `json:"sessions"`
	Cap      int    `json:"cap"`
	Active   int    `json:"active"`
	Opened   int64  `json:"opened_total"`
	Evicted  int64  `json:"evicted_total"`
}

// RegisterRoutes exposes the set on a telemetry server:
//
//	GET /sessions                     live-session listing + cap/eviction stats
//	GET /sessions/{id}/metrics.json   the session's registry as JSON
//	GET /sessions/{id}/metrics        Prometheus text with a session label
//
// JSON routes share ServeJSON's contract (gzip when accepted,
// Cache-Control: no-store). Routes may be registered while the server
// is already serving.
func (t *Set) RegisterRoutes(srv *obs.Server) error {
	if t == nil || srv == nil {
		return nil
	}
	if err := srv.TryHandle("/sessions", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeJSON(w, r, func(out io.Writer) error {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			list := t.List()
			return enc.Encode(sessionsPayload{
				Sessions: list,
				Cap:      t.Cap(),
				Active:   len(list),
				Opened:   t.opened.Value(),
				Evicted:  t.evicted.Value(),
			})
		})
	}); err != nil {
		return err
	}
	handle := func(pattern string, f func(s *Scope, w http.ResponseWriter, r *http.Request)) error {
		return srv.TryHandle(pattern, func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			s := t.Get(id)
			if s == nil {
				http.Error(w, "unknown session "+id, http.StatusNotFound)
				return
			}
			f(s, w, r)
		})
	}
	if err := handle("/sessions/{id}/metrics.json", func(s *Scope, w http.ResponseWriter, r *http.Request) {
		obs.ServeJSON(w, r, s.Registry().WriteJSON)
	}); err != nil {
		return err
	}
	return handle("/sessions/{id}/metrics", func(s *Scope, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_ = s.Registry().WriteTextLabeled(w, "session", s.ID())
	})
}
