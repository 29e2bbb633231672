package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/shard"
)

// stubScorer gives every item a fixed score from a vector, so tests
// can distinguish which scorer answered a request.
type stubScorer struct {
	scores  []float64
	entered chan struct{} // if non-nil, signaled once on first ScoreItems
	release chan struct{} // if non-nil, ScoreItems blocks until closed
	once    sync.Once
}

func (s *stubScorer) ScoreItems(_ int, out []float64) {
	if s.entered != nil {
		s.once.Do(func() { close(s.entered) })
	}
	if s.release != nil {
		<-s.release
	}
	copy(out, s.scores)
}

func (s *stubScorer) NumItems() int { return len(s.scores) }

// degradedServer boots a server with no scorer at all — the
// missing/corrupt-snapshot boot path.
func degradedServer(t *testing.T, opts ...Option) (*Server, int) {
	t.Helper()
	_, d := testServer(t) // ensures the shared dataset is built
	return New(d, nil, opts...), d.NumItems
}

// The headline degradation contract: with no valid snapshot the
// ranking endpoints answer 200 with "degraded": true from the
// popularity fallback — never a 5xx.
func TestRecommendDegradedWithoutScorer(t *testing.T) {
	s, _ := degradedServer(t)
	rr, body := get(t, s, "/v1/recommend?user=3&k=5")
	if rr.Code != http.StatusOK {
		t.Fatalf("degraded recommend status = %d, want 200", rr.Code)
	}
	if body["degraded"] != true {
		t.Fatalf("degraded flag = %v, want true", body["degraded"])
	}
	recs := body["recommendations"].([]any)
	if len(recs) != 5 {
		t.Fatalf("degraded recommend returned %d items, want 5", len(recs))
	}
	// Fallback ranking is by popularity: scores must be non-increasing.
	prev := recs[0].(map[string]any)["score"].(float64)
	for _, r := range recs[1:] {
		sc := r.(map[string]any)["score"].(float64)
		if sc > prev {
			t.Fatalf("fallback scores not sorted: %v after %v", sc, prev)
		}
		prev = sc
	}

	if _, body := do(t, s, http.MethodPost, "/v1/recommend:batch",
		`{"users":[1,2],"k":3}`); body["degraded"] != true {
		t.Fatalf("batch degraded flag = %v, want true", body["degraded"])
	}
	if _, body := get(t, s, "/v1/health"); body["degraded"] != true {
		t.Fatalf("health degraded flag = %v, want true", body["degraded"])
	}
}

// A healthy server must report degraded=false everywhere.
func TestRecommendNotDegradedWithScorer(t *testing.T) {
	s, _ := testServer(t)
	rr, body := get(t, s, "/v1/recommend?user=3&k=5")
	if rr.Code != http.StatusOK || body["degraded"] != false {
		t.Fatalf("healthy recommend: status %d degraded %v", rr.Code, body["degraded"])
	}
}

func TestHealthLiveAlwaysOK(t *testing.T) {
	s, _ := degradedServer(t)
	rr, _ := get(t, s, "/v1/health/live")
	if rr.Code != http.StatusOK {
		t.Fatalf("liveness of degraded server = %d, want 200", rr.Code)
	}
}

func TestHealthReadyTracksDegradation(t *testing.T) {
	_, d := testServer(t)
	s := New(d, nil, WithLoader(func() (eval.Scorer, error) {
		return &stubScorer{scores: make([]float64, d.NumItems)}, nil
	}))
	if rr, _ := get(t, s, "/v1/health/ready"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readiness = %d, want 503", rr.Code)
	}
	if rr, body := do(t, s, http.MethodPost, "/v1/admin/reload", ""); rr.Code != http.StatusOK {
		t.Fatalf("reload = %d %v", rr.Code, body)
	}
	if rr, body := get(t, s, "/v1/health/ready"); rr.Code != http.StatusOK || body["degraded"] != false {
		t.Fatalf("post-reload readiness = %d degraded %v", rr.Code, body["degraded"])
	}
}

// The satellite contract: a hot swap must fully invalidate the score
// cache — no request after reload may see a vector computed by the old
// scorer.
func TestReloadInvalidatesScoreCache(t *testing.T) {
	s, n := degradedServer(t)
	a := &stubScorer{scores: make([]float64, n)}
	b := &stubScorer{scores: make([]float64, n)}
	for i := range a.scores {
		a.scores[i] = float64(i)     // scorer A ranks the last item first
		b.scores[i] = float64(n - i) // scorer B ranks item 0 first
	}
	s.SetScorer(a)
	_, before := get(t, s, "/v1/recommend?user=0&k=1")
	_, again := get(t, s, "/v1/recommend?user=0&k=1") // hits the cache
	itemA := before["recommendations"].([]any)[0].(map[string]any)["item"]
	if got := again["recommendations"].([]any)[0].(map[string]any)["item"]; got != itemA {
		t.Fatalf("cached recommend changed without reload: %v vs %v", got, itemA)
	}

	s.SetScorer(b)
	_, after := get(t, s, "/v1/recommend?user=0&k=1")
	itemB := after["recommendations"].([]any)[0].(map[string]any)["item"]
	if itemA == itemB {
		t.Fatalf("stale cache: still recommending %v after scorer swap", itemA)
	}
}

// Reload retries with backoff and succeeds once the loader recovers.
func TestReloadRetriesUntilLoaderRecovers(t *testing.T) {
	fails := 2
	calls := 0
	_, d := testServer(t)
	s := New(d, nil,
		WithReloadPolicy(3, time.Millisecond),
		WithLoader(func() (eval.Scorer, error) {
			calls++
			if calls <= fails {
				return nil, errors.New("snapshot still syncing")
			}
			return &stubScorer{scores: make([]float64, d.NumItems)}, nil
		}))
	if err := s.Reload(); err != nil {
		t.Fatalf("Reload after transient failures: %v", err)
	}
	if calls != fails+1 {
		t.Fatalf("loader called %d times, want %d", calls, fails+1)
	}
	if s.Degraded() {
		t.Fatal("server still degraded after successful reload")
	}
}

// A reload that keeps failing must leave the previous state serving
// and report the failure through /v1/admin/reload and /v1/stats.
func TestReloadFailureKeepsServing(t *testing.T) {
	_, d := testServer(t)
	s := New(d, nil,
		WithReloadPolicy(2, time.Millisecond),
		WithLoader(func() (eval.Scorer, error) {
			return nil, errors.New("disk on fire")
		}))
	rr, body := do(t, s, http.MethodPost, "/v1/admin/reload", "")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("failed reload status = %d, want 503", rr.Code)
	}
	if code, _ := envelopeCode(t, body); code != "reload_failed" {
		t.Fatalf("failed reload code = %q", code)
	}
	if rr, _ := get(t, s, "/v1/recommend?user=1&k=3"); rr.Code != http.StatusOK {
		t.Fatalf("recommend after failed reload = %d, want 200", rr.Code)
	}
	_, stats := get(t, s, "/v1/stats")
	if stats["reload_failures"].(float64) != 1 {
		t.Fatalf("reload_failures = %v, want 1", stats["reload_failures"])
	}
}

func TestReloadWithoutLoaderIsNotImplemented(t *testing.T) {
	s, _ := degradedServer(t)
	rr, body := do(t, s, http.MethodPost, "/v1/admin/reload", "")
	if rr.Code != http.StatusNotImplemented {
		t.Fatalf("reload without loader = %d, want 501", rr.Code)
	}
	if code, _ := envelopeCode(t, body); code != "no_loader" {
		t.Fatalf("code = %q, want no_loader", code)
	}
}

// Past the inflight cap, requests are shed with 503 + Retry-After
// while health probes keep answering.
func TestLoadSheddingAtInflightCap(t *testing.T) {
	_, d := testServer(t)
	blocked := &stubScorer{
		scores:  make([]float64, d.NumItems),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	s := New(d, blocked, WithMaxInflight(1))

	done := make(chan int, 1)
	go func() {
		rr, _ := get(t, s, "/v1/recommend?user=0&k=3")
		done <- rr.Code
	}()
	<-blocked.entered // the one admitted request is inside ScoreItems

	rr, body := get(t, s, "/v1/recommend?user=1&k=3")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if code, _ := envelopeCode(t, body); code != "overloaded" {
		t.Fatalf("shed code = %q, want overloaded", code)
	}
	if rr, _ := get(t, s, "/v1/health/live"); rr.Code != http.StatusOK {
		t.Fatalf("health shed alongside traffic: %d", rr.Code)
	}

	close(blocked.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("admitted request = %d, want 200", code)
	}
	_, stats := get(t, s, "/v1/stats")
	if stats["shed_requests"].(float64) < 1 {
		t.Fatalf("shed_requests = %v, want >= 1", stats["shed_requests"])
	}
}

// An in-flight cache fill that started before an Invalidate must not
// be inserted afterward (the generation check in shard.ScoreCache): the
// racing fill's vector may predate a model hot swap.
func TestCacheGenerationDiscardsRacingFill(t *testing.T) {
	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	c := shard.NewScoreCache(4, 3, func(_ context.Context, _ int, out []float64) {
		n := calls.Add(1)
		if n == 1 {
			close(entered)
			<-release
		}
		for i := range out {
			out[i] = float64(n)
		}
	})

	first := make(chan []float64, 1)
	go func() { first <- c.Scores(context.Background(), 0) }()
	<-entered      // fill #1 is mid-score
	c.Invalidate() // hot swap happens here
	close(release)

	if got := <-first; got[0] != 1 {
		t.Fatalf("racing fill returned %v, want its own (old) vector", got)
	}
	// The stale fill must not have been cached: this lookup re-scores.
	if got := c.Scores(context.Background(), 0); got[0] != 2 {
		t.Fatalf("post-invalidate Scores = %v, want freshly computed 2s", got)
	}
	if _, _, entries := c.Stats(); entries != 1 {
		t.Fatalf("entries = %d, want exactly the fresh fill", entries)
	}
}
