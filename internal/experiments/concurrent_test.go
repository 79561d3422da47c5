package experiments

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"press/internal/obs"
	"press/internal/obs/scope"
)

// TestConcurrentRegistersSessionRoutes: when the ambient scope carries
// a live telemetry server (pressim -exp concurrent -telemetry-addr …),
// RunConcurrent must expose its ScopeSet there — a plain pressim run
// previously 404'd on /sessions because the set was never registered.
func TestConcurrentRegistersSessionRoutes(t *testing.T) {
	reg := obs.NewRegistry()
	srv := obs.NewServer(reg, 0)
	defer srv.Close()
	SetScope(scope.Adopt("", reg, nil, nil, nil, nil).WithServer(srv))
	defer SetScope(nil)

	res, err := RunConcurrent(ConcurrentOptions{Sessions: 3, Budget: 12, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reconciled() {
		t.Fatalf("roll-up mismatch: %+v", res)
	}

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/sessions", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /sessions = %d, want 200\n%s", rr.Code, rr.Body.String())
	}
	var payload struct {
		Opened int64 `json:"opened_total"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/sessions not JSON: %v\n%s", err, rr.Body.String())
	}
	if payload.Opened != 3 {
		t.Errorf("opened_total = %d, want 3", payload.Opened)
	}
}
