package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/serve/api"
)

// A server holds exactly one shard: WithShards accepts only
// DefaultShards and panics on anything else, before a server exists.
func TestWithShardsPanics(t *testing.T) {
	for _, n := range []int{0, 2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WithShards(%d) did not panic", n)
				}
			}()
			WithShards(n)
		}()
	}
	s, _ := testServer(t, WithShards(DefaultShards))
	if _, out := get(t, s, "/v1/health"); out["shards"].(float64) != 1 {
		t.Fatalf("health shards = %v, want 1", out["shards"])
	}
}

// /v1/stats must publish the request limits and the one shard:0 block.
func TestStatsLimitsAndShardBlocks(t *testing.T) {
	s, d := testServer(t)
	for user := 0; user < d.NumUsers; user += 4 {
		get(t, s, fmt.Sprintf("/v1/recommend?user=%d&k=3", user))
	}

	_, out := get(t, s, "/v1/stats")
	limits, ok := out["limits"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing limits block: %v", out)
	}
	if limits["max_k"].(float64) != api.DefaultMaxK || limits["max_batch"].(float64) != api.DefaultMaxBatch {
		t.Fatalf("published limits wrong: %v", limits)
	}

	shards, ok := out["shards"].([]any)
	if !ok || len(shards) != 1 {
		t.Fatalf("stats must carry one shard block: %v", out["shards"])
	}
	sh := shards[0].(map[string]any)
	if sh["shard"].(float64) != 0 {
		t.Fatalf("shard block misnumbered: %v", sh)
	}
	if sh["degraded"].(bool) {
		t.Fatalf("healthy shard reports degraded")
	}
	if sh["requests"].(float64) == 0 {
		t.Fatalf("shard accounted no requests: %v", sh)
	}
	if _, ok := sh["cache"].(map[string]any); !ok {
		t.Fatalf("shard block missing cache stats: %v", sh)
	}
}

// /v1/admin/reload must report its outcome as a one-element shards
// array (shard 0), calling the loader once.
func TestReloadReportsPerShardHTTP(t *testing.T) {
	calls := 0
	loader := func() (eval.Scorer, error) {
		calls++
		return testModelOnce.m, nil
	}
	s, _ := testServer(t, WithLoader(loader), WithReloadPolicy(1, 0))

	rr, out := do(t, s, http.MethodPost, "/v1/admin/reload", "")
	if rr.Code != http.StatusOK || out["status"] != "reloaded" {
		t.Fatalf("reload: %d %v", rr.Code, out)
	}
	shards, ok := out["shards"].([]any)
	if !ok || len(shards) != 1 {
		t.Fatalf("reload must report one shard: %v", out)
	}
	sh := shards[0].(map[string]any)
	if sh["shard"].(float64) != 0 || sh["status"] != "reloaded" || sh["degraded"] != false {
		t.Fatalf("shard report: %v", sh)
	}
	if calls != 1 {
		t.Fatalf("loader called %d times, want once", calls)
	}
}

// shard_* metrics must appear on /metrics once traffic has flowed,
// with the single shard="0" series.
func TestShardMetricsExposition(t *testing.T) {
	s, d := testServer(t)
	for user := 0; user < d.NumUsers; user += 6 {
		get(t, s, fmt.Sprintf("/v1/recommend?user=%d&k=3", user))
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	bodyStr := rr.Body.String()
	for _, want := range []string{
		"shard_count 1",
		`shard_requests_total{shard="0"}`,
		`shard_degraded{shard="0"} 0`,
		`shard_cache_misses_total{shard="0"}`,
	} {
		if !strings.Contains(bodyStr, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if strings.Contains(bodyStr, `shard="1"`) {
		t.Fatalf("/metrics carries a second shard series")
	}
}
