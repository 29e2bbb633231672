package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	s, _ := testServer(t)
	rr, _ := get(t, s, "/v1/health")
	if rr.Header().Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID assigned")
	}
	// A caller-supplied ID is propagated, not replaced.
	req := httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	rr2 := httptest.NewRecorder()
	s.ServeHTTP(rr2, req)
	if got := rr2.Header().Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("X-Request-ID = %q, want trace-me-42", got)
	}
}

func TestPanicRecoveryReturnsEnvelopedError(t *testing.T) {
	s, _ := testServer(t)
	// Register a deliberately panicking route behind the middleware
	// stack (in-package test: the mux is reachable).
	s.mux.HandleFunc("/v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rr, body := get(t, s, "/v1/boom")
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	if code, _ := envelopeCode(t, body); code != "internal" {
		t.Fatalf("error code %q, want internal", code)
	}
	// The panic must be recorded as a 500 in the metrics. /v1/boom is
	// registered directly on the mux, not via route(), so it is outside
	// the normalized endpoint set and lands in the "other" bucket.
	snap := s.statsSnapshot()
	if snap.Endpoints[obs.OtherLabel].Status["5xx"] != 1 {
		t.Fatalf("panic not recorded as 5xx: %+v", snap.Endpoints[obs.OtherLabel])
	}
}

func TestDeadlineExceededReturnsTimeout(t *testing.T) {
	s, d := testServer(t, WithTimeout(time.Nanosecond))
	item := d.Train[0][1]
	rr, body := get(t, s, fmt.Sprintf("/v1/similar?item=%d", item))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rr.Code)
	}
	if code, _ := envelopeCode(t, body); code != "timeout" {
		t.Fatalf("error code %q, want timeout", code)
	}
}

// TestConcurrentRecommend hits /v1/recommend from 32 goroutines under
// -race: every response must be a well-formed 200, and afterwards the
// inflight gauge must read zero and the cache accounting must add up.
func TestConcurrentRecommend(t *testing.T) {
	s, d := testServer(t)
	const goroutines = 32
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				user := (g*perG + i) % d.NumUsers
				req := httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/v1/recommend?user=%d&k=5", user), nil)
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					errs <- fmt.Errorf("user %d: status %d: %s", user, rr.Code, rr.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := s.statsSnapshot()
	if snap.Inflight != 0 {
		t.Fatalf("inflight gauge %d after drain, want 0", snap.Inflight)
	}
	if got := snap.Endpoints["/v1/recommend"].Count; got != goroutines*perG {
		t.Fatalf("recommend count %d, want %d", got, goroutines*perG)
	}
	if snap.Cache.Hits+snap.Cache.Misses != goroutines*perG {
		t.Fatalf("cache hits+misses = %d, want %d",
			snap.Cache.Hits+snap.Cache.Misses, goroutines*perG)
	}
	// 640 requests over ≤60 users must mostly hit the cache.
	if snap.Cache.HitRate < 0.5 {
		t.Fatalf("hit rate %.2f suspiciously low", snap.Cache.HitRate)
	}
}

// TestInvalidateCache verifies the retrain hook drops entries and the
// next request re-scores.
func TestInvalidateCache(t *testing.T) {
	s, _ := testServer(t)
	get(t, s, "/v1/recommend?user=4&k=3")
	if _, _, entries := s.disp.CacheStats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	s.InvalidateCache()
	if _, _, entries := s.disp.CacheStats(); entries != 0 {
		t.Fatal("invalidate left entries behind")
	}
	rr, _ := get(t, s, "/v1/recommend?user=4&k=3")
	if rr.Code != http.StatusOK {
		t.Fatalf("post-invalidate status %d", rr.Code)
	}
	_, misses, _ := s.disp.CacheStats()
	if misses != 2 {
		t.Fatalf("misses = %d, want 2 (re-score after invalidate)", misses)
	}
}
