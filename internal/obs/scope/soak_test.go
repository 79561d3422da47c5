package scope

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/obstest"
)

// TestSoakConcurrentSessions is the tentpole's proof obligation: ≥100
// instrumented sessions live at once, written by concurrent producers,
// with per-session totals and the hierarchical roll-up reconciling
// exactly. The table crosses scope counts with producer goroutines per
// scope so -race sees single-writer, many-writer, and many-scope
// interleavings.
func TestSoakConcurrentSessions(t *testing.T) {
	cases := []struct {
		scopes, producers, writes int
	}{
		{scopes: 4, producers: 8, writes: 200},
		{scopes: 32, producers: 4, writes: 100},
		{scopes: 120, producers: 2, writes: 50},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dscopes_x_%dproducers", tc.scopes, tc.producers), func(t *testing.T) {
			parent := obs.NewRegistry()
			set := NewSet(parent, tc.scopes) // exact fit: no evictions
			defer set.Close()

			var wg sync.WaitGroup
			for i := 0; i < tc.scopes; i++ {
				s, err := set.Open(fmt.Sprintf("room-%03d", i), "")
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < tc.producers; p++ {
					wg.Add(1)
					go func(s *Scope) {
						defer wg.Done()
						c := s.Registry().Counter("soak_evals_total")
						h := s.Registry().Histogram("soak_score", nil)
						for w := 0; w < tc.writes; w++ {
							c.Inc()
							h.Observe(float64(w % 10))
							s.Registry().Gauge("soak_best").Set(float64(w))
						}
					}(s)
				}
			}
			wg.Wait()

			perScope := int64(tc.producers * tc.writes)
			var sum int64
			for i := 0; i < tc.scopes; i++ {
				s := set.Get(fmt.Sprintf("room-%03d", i))
				if s == nil {
					t.Fatalf("scope %d missing", i)
				}
				got := s.Registry().Counter("soak_evals_total").Value()
				if got != perScope {
					t.Fatalf("scope %d counter = %d, want %d", i, got, perScope)
				}
				sum += got
			}
			if got := parent.Counter("soak_evals_total").Value(); got != sum {
				t.Fatalf("roll-up = %d, want sum of sessions %d", got, sum)
			}
			if got := parent.Histogram("soak_score", nil).Count(); got != sum {
				t.Fatalf("roll-up histogram count = %d, want %d", got, sum)
			}
		})
	}
}

// TestSoakEvictionUnderLoad drives more sessions than the cap while
// producers write, asserting the roll-up still accounts for evicted
// sessions and the eviction counters balance.
func TestSoakEvictionUnderLoad(t *testing.T) {
	parent := obs.NewRegistry()
	const cap, sessions, writes = 16, 100, 50
	set := NewSet(parent, cap)
	defer set.Close()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		s, err := set.Open(fmt.Sprintf("room-%03d", i), "")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Scope) {
			defer wg.Done()
			for w := 0; w < writes; w++ {
				s.Registry().Counter("evict_evals_total").Inc()
			}
		}(s)
	}
	wg.Wait()

	if got := parent.Counter("evict_evals_total").Value(); got != sessions*writes {
		t.Fatalf("roll-up lost evicted sessions' writes: %d, want %d", got, sessions*writes)
	}
	if got := set.Len(); got != cap {
		t.Fatalf("live = %d, want %d", got, cap)
	}
	evicted := parent.Counter(CounterScopesEvicted).Value()
	opened := parent.Counter(CounterScopesOpened).Value()
	if opened != sessions || evicted != sessions-cap {
		t.Fatalf("opened=%d evicted=%d, want %d/%d", opened, evicted, sessions, sessions-cap)
	}
}

// TestSoakSSEFanOut exercises concurrent /events subscribers while
// every room publishes and writes its counters and the server's sample
// tick runs — the fan-out half of the race table.
func TestSoakSSEFanOut(t *testing.T) {
	parent := obs.NewRegistry()
	srv := obs.NewServer(parent, 5*time.Millisecond)
	set := NewSet(parent, 32)
	defer set.Close()
	if err := set.RegisterRoutes(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	const scopes = 8
	for i := 0; i < scopes; i++ {
		if _, err := set.Open(fmt.Sprintf("room-%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	for i := 0; i < scopes; i++ {
		pubWG.Add(1)
		go func(i int) {
			defer pubWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.Publish("tick", map[string]int{"i": i})
					set.Get(fmt.Sprintf("room-%d", i)).Registry().Counter("sse_ticks").Inc()
				}
			}
		}(i)
	}

	var subWG sync.WaitGroup
	for i := 0; i < scopes; i++ {
		subWG.Add(1)
		go func(i int) {
			defer subWG.Done()
			resp, err := http.Get(base + "/events")
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			buf := make([]byte, 2048)
			var n int
			obstest.WaitUntil(t, 2*time.Second, func() bool {
				m, err := resp.Body.Read(buf)
				n += m
				if err != nil {
					if err != io.EOF {
						t.Errorf("subscriber %d read: %v", i, err)
					}
					return true
				}
				return n >= 4096
			})
		}(i)
	}
	subWG.Wait()
	close(stop)
	pubWG.Wait()
}
