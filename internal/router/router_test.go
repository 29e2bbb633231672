package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/shard"
	"repro/internal/trace"
)

var testModelOnce = sync.OnceValues(func() (*dataset.Dataset, *core.Model) {
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 50
	cfg.NumOrgs = 6
	cfg.MeanQueries = 18
	tr := trace.Generate(cat, cfg, 11)
	d := dataset.Build(tr, dataset.AllSources(), 11)
	m := core.NewDefault()
	tc := models.DefaultTrainConfig()
	tc.Epochs = 2
	tc.EmbedDim = 16
	if err := m.Train(context.Background(), d, tc); err != nil {
		panic(err)
	}
	return d, m
})

// testCluster boots n identical serve backends (same dataset, same
// trained scorer — every replica can answer for every entity, exactly
// like N serve processes loading one snapshot) plus a router in front.
func testCluster(t *testing.T, n int, opts ...serve.Option) (*Router, []*httptest.Server, *dataset.Dataset) {
	t.Helper()
	d, m := testModelOnce()
	backends := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = httptest.NewServer(serve.New(d, m, opts...))
		t.Cleanup(backends[i].Close)
		urls[i] = backends[i].URL
	}
	rt, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	return rt, backends, d
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func post(t *testing.T, h http.Handler, path string, body []byte) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func getDirect(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// Single-entity routes must reach the owning backend and come back
// byte-identical to asking that backend directly.
func TestRouterProxiesBitIdentical(t *testing.T) {
	rt, backends, d := testCluster(t, 2)

	for user := 0; user < d.NumUsers; user++ {
		path := fmt.Sprintf("/v1/recommend?user=%d&k=5", user)
		owner := rt.BackendFor(shard.UserKey(user))
		gotCode, gotBody := get(t, rt, path)
		wantCode, wantBody := getDirect(t, backends[owner].URL, path)
		if gotCode != wantCode || gotBody != wantBody {
			t.Fatalf("user %d (backend %d): routed response differs\nrouted: %d %s\ndirect: %d %s",
				user, owner, gotCode, gotBody, wantCode, wantBody)
		}
	}

	item := d.Train[0][1]
	path := fmt.Sprintf("/v1/similar?item=%d&k=5", item)
	owner := rt.BackendFor(shard.ItemKey(item))
	gotCode, gotBody := get(t, rt, path)
	wantCode, wantBody := getDirect(t, backends[owner].URL, path)
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("similar: routed %d %s, direct %d %s", gotCode, gotBody, wantCode, wantBody)
	}

	user, target := d.Train[0][0], d.Test[0][1]
	path = fmt.Sprintf("/v1/explain?user=%d&item=%d", user, target)
	owner = rt.BackendFor(shard.UserKey(user))
	gotCode, gotBody = get(t, rt, path)
	wantCode, wantBody = getDirect(t, backends[owner].URL, path)
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("explain: routed %d %s, direct %d %s", gotCode, gotBody, wantCode, wantBody)
	}
}

// Error envelopes (unknown user, bad k) must pass through unmodified,
// including their HTTP status.
func TestRouterProxiesErrorEnvelopes(t *testing.T) {
	rt, _, d := testCluster(t, 2)
	for _, path := range []string{
		fmt.Sprintf("/v1/recommend?user=%d&k=5", d.NumUsers+50),
		"/v1/recommend?user=1&k=0",
		"/v1/recommend?user=notanum",
	} {
		code, body := get(t, rt, path)
		var env api.ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == nil {
			t.Fatalf("%s: no error envelope in %q", path, body)
		}
		if code != env.Error.Status {
			t.Fatalf("%s: HTTP %d but envelope status %d", path, code, env.Error.Status)
		}
	}

	code, body := get(t, rt, "/v1/nosuch")
	if code != http.StatusNotFound || !strings.Contains(body, "not_found") {
		t.Fatalf("unknown route: %d %s", code, body)
	}
}

// recommend:batch must split by owner, fan out, and reassemble in
// request order with results equal to a single backend's answer.
func TestRouterBatchSplitMerge(t *testing.T) {
	rt, backends, d := testCluster(t, 3)

	users := make([]int, d.NumUsers)
	for i := range users {
		users[i] = i
	}
	body, _ := json.Marshal(api.BatchRequest{Users: users, K: 7})

	code, got := post(t, rt, "/v1/recommend:batch", body)
	if code != http.StatusOK {
		t.Fatalf("routed batch: %d %s", code, got)
	}
	var routed api.BatchResponse
	if err := json.Unmarshal([]byte(got), &routed); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(backends[0].URL+"/v1/recommend:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var direct api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}

	if routed.K != direct.K || routed.Degraded != direct.Degraded {
		t.Fatalf("batch envelope mismatch: routed k=%d degraded=%v, direct k=%d degraded=%v",
			routed.K, routed.Degraded, direct.K, direct.Degraded)
	}
	if len(routed.Results) != len(direct.Results) {
		t.Fatalf("batch sizes differ: %d vs %d", len(routed.Results), len(direct.Results))
	}
	for i := range routed.Results {
		if routed.Results[i].User != users[i] {
			t.Fatalf("result %d out of request order: user %d", i, routed.Results[i].User)
		}
		r, w := routed.Results[i], direct.Results[i]
		if r.User != w.User || len(r.Recommendations) != len(w.Recommendations) {
			t.Fatalf("user %d: merged result differs: %+v vs %+v", users[i], r, w)
		}
		for j := range r.Recommendations {
			if r.Recommendations[j] != w.Recommendations[j] {
				t.Fatalf("user %d rank %d: %+v vs %+v", users[i], j,
					r.Recommendations[j], w.Recommendations[j])
			}
		}
	}

	// Canonical validation envelopes still come from the backend.
	code, got = post(t, rt, "/v1/recommend:batch", []byte(`{"users":[]}`))
	if code != http.StatusBadRequest || !strings.Contains(got, "bad_param") {
		t.Fatalf("empty batch: %d %s", code, got)
	}
	code, got = post(t, rt, "/v1/recommend:batch", []byte(`{not json`))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed batch: %d %s", code, got)
	}
}

// Health and readiness must aggregate the cluster: all healthy → ok
// with summed shard counts; any degraded backend → degraded, not ready.
func TestRouterHealthAndReadyAggregation(t *testing.T) {
	rt, _, d := testCluster(t, 2)

	code, body := get(t, rt, "/v1/health")
	var h api.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || code != http.StatusOK {
		t.Fatalf("health: %d %s (%v)", code, body, err)
	}
	if h.Degraded || h.Status != "ok" || h.Facility != d.Name || h.Users != d.NumUsers {
		t.Fatalf("merged health wrong: %+v", h)
	}
	if h.Shards != 2 {
		t.Fatalf("merged health shards = %d, want 2 (1 per backend)", h.Shards)
	}

	if code, _ := get(t, rt, "/v1/health/ready"); code != http.StatusOK {
		t.Fatalf("ready = %d, want 200", code)
	}
	if code, _ := get(t, rt, "/v1/health/live"); code != http.StatusOK {
		t.Fatalf("live = %d, want 200", code)
	}
}

func TestRouterDegradedBackendFlipsReadiness(t *testing.T) {
	d, m := testModelOnce()
	healthy := httptest.NewServer(serve.New(d, m))
	t.Cleanup(healthy.Close)
	degraded := httptest.NewServer(serve.New(d, nil)) // popularity fallback, ready=503
	t.Cleanup(degraded.Close)

	rt, err := New(Config{Backends: []string{healthy.URL, degraded.URL}})
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, rt, "/v1/health")
	var h api.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || code != http.StatusOK {
		t.Fatalf("health: %d %s (%v)", code, body, err)
	}
	if !h.Degraded {
		t.Fatalf("one degraded backend must degrade the merged health: %+v", h)
	}

	code, body = get(t, rt, "/v1/health/ready")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ready with a degraded backend = %d, want 503 (%s)", code, body)
	}
	if !strings.Contains(body, degraded.URL) || !strings.Contains(body, `"ready":false`) {
		t.Fatalf("ready body does not name the degraded backend: %s", body)
	}
}

// An unreachable backend must surface as a 502 bad_gateway envelope on
// the aggregating endpoints rather than hanging or panicking.
func TestRouterUnreachableBackend(t *testing.T) {
	d, m := testModelOnce()
	healthy := httptest.NewServer(serve.New(d, m))
	t.Cleanup(healthy.Close)
	rt, err := New(Config{Backends: []string{healthy.URL, "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, rt, "/v1/health")
	if code != http.StatusBadGateway || !strings.Contains(body, "bad_gateway") {
		t.Fatalf("health with dead backend: %d %s", code, body)
	}
	if code, _ := get(t, rt, "/v1/health/ready"); code != http.StatusServiceUnavailable {
		t.Fatalf("ready with dead backend = %d, want 503", code)
	}
}

// A batch whose sub-batches fail on two backends must answer with the
// same envelope every time: the lowest-indexed failing backend's,
// independent of goroutine scheduling or map iteration order.
func TestRouterBatchErrorDeterministic(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		dead := httptest.NewServer(http.NotFoundHandler())
		urls[i] = dead.URL
		dead.Close() // connections to its address are now refused
	}
	rt, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	// One user owned by each backend, so the batch spans both.
	owned := []int{-1, -1}
	for u := 0; owned[0] < 0 || owned[1] < 0; u++ {
		if b := rt.BackendFor(shard.UserKey(u)); owned[b] < 0 {
			owned[b] = u
		}
	}
	body, _ := json.Marshal(api.BatchRequest{Users: []int{owned[1], owned[0]}, K: 3})

	var first api.Error
	for i := 0; i < 20; i++ {
		code, raw := post(t, rt, "/v1/recommend:batch", body)
		var env api.ErrorEnvelope
		if err := json.Unmarshal([]byte(raw), &env); err != nil || env.Error == nil {
			t.Fatalf("attempt %d: not an error envelope: %d %s", i, code, raw)
		}
		got := *env.Error
		got.TraceID = "" // differs per request by design
		if code != http.StatusBadGateway || got.Status != http.StatusBadGateway || got.Code != "bad_gateway" {
			t.Fatalf("attempt %d: %d %s, want 502 bad_gateway", i, code, raw)
		}
		if i == 0 {
			first = got
			if !strings.Contains(got.Message, urls[0]) {
				t.Fatalf("envelope names %q, want backend 0 (%s)", got.Message, urls[0])
			}
			continue
		}
		if got != first {
			t.Fatalf("attempt %d: envelope %+v differs from the first %+v", i, got, first)
		}
	}
}

// Reload must fan out to every backend and merge the per-shard reports
// with globally re-numbered shard IDs.
func TestRouterReloadFanOut(t *testing.T) {
	_, m := testModelOnce()
	loader := func() (eval.Scorer, error) { return m, nil }
	rt, _, _ := testCluster(t, 2, serve.WithLoader(loader))

	code, body := post(t, rt, "/v1/admin/reload", nil)
	if code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	var rr api.ReloadResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "reloaded" || rr.Degraded {
		t.Fatalf("merged reload: %+v", rr)
	}
	if len(rr.Shards) != 2 {
		t.Fatalf("reload reported %d shards, want 2 (1 per backend)", len(rr.Shards))
	}
	for i, sh := range rr.Shards {
		if sh.Shard != i || sh.Status != "reloaded" {
			t.Fatalf("shard report %d not renumbered/reloaded: %+v", i, sh)
		}
	}

	if code, body := get(t, rt, "/v1/admin/reload"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d %s", code, body)
	}
}

// A backend without a loader fails its part of the fan-out; the merged
// response must go 503 while still reporting every backend.
func TestRouterReloadPartialFailure(t *testing.T) {
	d, m := testModelOnce()
	withLoader := httptest.NewServer(serve.New(d, m,
		serve.WithLoader(func() (eval.Scorer, error) { return m, nil })))
	t.Cleanup(withLoader.Close)
	noLoader := httptest.NewServer(serve.New(d, m))
	t.Cleanup(noLoader.Close)

	rt, err := New(Config{Backends: []string{withLoader.URL, noLoader.URL}})
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(t, rt, "/v1/admin/reload", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "reload_failed") {
		t.Fatalf("partial reload failure: %d %s", code, body)
	}
	if !strings.Contains(body, `"reloaded"`) || !strings.Contains(body, `"failed"`) {
		t.Fatalf("merged report must carry both outcomes: %s", body)
	}
}

// Stats must merge counters across backends and renumber the shards
// block.
func TestRouterStatsMerge(t *testing.T) {
	rt, _, d := testCluster(t, 2)

	hits := 0
	for user := 0; user < d.NumUsers; user += 5 {
		if code, _ := get(t, rt, fmt.Sprintf("/v1/recommend?user=%d&k=3", user)); code == http.StatusOK {
			hits++
		}
	}
	code, body := get(t, rt, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st api.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Facility != d.Name || !st.Ready {
		t.Fatalf("merged stats header wrong: %+v", st)
	}
	if got := st.Endpoints["/v1/recommend"].Count; got < uint64(hits) {
		t.Fatalf("merged recommend count %d < %d requests sent", got, hits)
	}
	if st.Limits.MaxK != api.DefaultMaxK || st.Limits.MaxBatch != api.DefaultMaxBatch {
		t.Fatalf("merged limits wrong: %+v", st.Limits)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("merged shards = %d, want 2", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Fatalf("shard %d not renumbered: %+v", i, sh)
		}
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatalf("merged cache accounting empty: %+v", st.Cache)
	}
}

// The router must require at least one backend.
func TestRouterRequiresBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends must fail")
	}
}
