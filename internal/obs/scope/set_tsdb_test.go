package scope

import (
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/obstest"
	"press/internal/obs/tsdb"
)

// sessionCount reads how many sessions currently hold series budget in
// the store.
func sessionCount(t *testing.T, s *tsdb.Store) int {
	t.Helper()
	return s.State().Sessions
}

// TestSetReleasesTSDBSessions: removing or LRU-evicting a scope must
// release its per-session series budget in the attached history store,
// so session churn cannot exhaust the store's cardinality budget.
func TestSetReleasesTSDBSessions(t *testing.T) {
	parent := obs.NewRegistry()
	store, err := tsdb.Open(tsdb.Options{Dir: t.TempDir(), Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	set := NewSet(parent, 2)
	set.AttachTSDB(store)
	defer set.Close()

	open := func(id string) {
		t.Helper()
		if _, err := set.Open(id, Config{}); err != nil {
			t.Fatal(err)
		}
		store.Offer(tsdb.Batch{
			UnixMs:   time.Now().UnixMilli(),
			Session:  id,
			Counters: map[string]int64{"scoped_work_total": 1},
		})
	}
	open("a")
	open("b")
	waitSessions := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for sessionCount(t, store) != want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := sessionCount(t, store); got != want {
			t.Fatalf("store sessions = %d, want %d", got, want)
		}
	}
	waitSessions(2)

	// Deliberate removal releases the session's budget.
	if err := set.Remove("a"); err != nil {
		t.Fatal(err)
	}
	waitSessions(1)

	// Opening past the cap evicts LRU "b" and releases it too.
	open("c")
	open("d")
	waitSessions(2) // c and d live; b released
	if set.Get("b") != nil {
		t.Fatal("b still in set after eviction")
	}

	// Close releases everything.
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	waitSessions(0)
}

// TestSetCollectsTailBeforeRelease: removing or LRU-evicting a scope
// collects the session's telemetry tail into the attached store before
// its series are released, so the stored totals match the session
// registries' final values.
func TestSetCollectsTailBeforeRelease(t *testing.T) {
	dir := t.TempDir()
	parent := obs.NewRegistry()
	store, err := tsdb.Open(tsdb.Options{Dir: dir, Reg: parent, CollectInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	set := NewSet(parent, 2)
	set.AttachTSDB(store)

	work := func(id string, n int64) {
		t.Helper()
		sc := set.Get(id)
		if sc == nil {
			t.Fatalf("session %s not open", id)
		}
		sc.Registry().Counter("scoped_work_total").Add(n)
	}
	for _, id := range []string{"a", "b"} {
		if _, err := set.Open(id, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	work("a", 3)
	work("b", 5)
	store.CollectNow()
	work("a", 4) // a's tail: collected only by Remove
	work("b", 2) // b's tail: collected only by the eviction
	if err := set.Remove("a"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c", "d"} { // d evicts LRU b
		if _, err := set.Open(id, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if set.Get("b") != nil {
		t.Fatal("b still in set after eviction")
	}
	if !obstest.WaitUntil(t, 2*time.Second, func() bool { return store.State().Released == 2 }) {
		t.Fatalf("sessions released = %d, want 2 (a removed, b evicted)", store.State().Released)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := tsdb.Open(tsdb.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]float64{"a": 7, "b": 7} {
		samples, err := ro.Instant(`scoped_work_total{session="`+id+`"}`, time.Now())
		if err != nil || len(samples) != 1 || samples[0].V != want {
			t.Errorf("session %s: %v %+v, want %v", id, err, samples, want)
		}
	}
}
