package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/trace"
)

// One trained model is shared across the whole test package (training
// dominates test time); every test still gets its own Server, so cache
// and metrics accounting start from zero.
var testModelOnce struct {
	sync.Once
	d   *dataset.Dataset
	m   *core.Model
	err error
}

func testServer(t testing.TB, opts ...Option) (*Server, *dataset.Dataset) {
	t.Helper()
	testModelOnce.Do(func() {
		cat := facility.OOI(7)
		cfg := trace.DefaultOOIConfig()
		cfg.NumUsers = 60
		cfg.NumOrgs = 8
		cfg.MeanQueries = 20
		tr := trace.Generate(cat, cfg, 3)
		testModelOnce.d = dataset.Build(tr, dataset.AllSources(), 3)
		testModelOnce.m = core.NewDefault()
		tc := models.DefaultTrainConfig()
		tc.Epochs = 3
		tc.EmbedDim = 16
		testModelOnce.err = testModelOnce.m.Train(context.Background(), testModelOnce.d, tc)
	})
	if testModelOnce.err != nil {
		t.Fatalf("test model: %v", testModelOnce.err)
	}
	return New(testModelOnce.d, testModelOnce.m, opts...), testModelOnce.d
}

func do(t testing.TB, s *Server, method, path string, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	var out map[string]any
	if rr.Body.Len() > 0 {
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: invalid JSON %q: %v", method, path, rr.Body.String(), err)
		}
	}
	return rr, out
}

func get(t testing.TB, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return do(t, s, http.MethodGet, path, "")
}

// envelopeCode extracts error.code from the uniform envelope.
func envelopeCode(t *testing.T, body map[string]any) (code string, status float64) {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("missing error envelope in %v", body)
	}
	if env["message"] == "" {
		t.Fatalf("envelope without message: %v", env)
	}
	return env["code"].(string), env["status"].(float64)
}

// TestRoutesAndEnvelope is the table-driven contract test for the /v1
// surface: success statuses, the uniform error envelope with its
// bad_param/not_found distinction, and enveloped 404/405 fallbacks.
// Unversioned paths are not routes: they answer 404 and are counted
// under the "other" endpoint label, never under their own.
func TestRoutesAndEnvelope(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"health ok", "GET", "/v1/health", "", 200, ""},
		{"recommend ok", "GET", "/v1/recommend?user=3&k=5", "", 200, ""},
		{"recommend default k", "GET", "/v1/recommend?user=3", "", 200, ""},
		{"recommend missing user", "GET", "/v1/recommend", "", 400, "bad_param"},
		{"recommend non-numeric user", "GET", "/v1/recommend?user=abc", "", 400, "bad_param"},
		{"recommend unknown user", "GET", "/v1/recommend?user=99999", "", 404, "not_found"},
		{"recommend negative user", "GET", "/v1/recommend?user=-1", "", 404, "not_found"},
		{"recommend k=0", "GET", "/v1/recommend?user=1&k=0", "", 400, "bad_param"},
		{"recommend k too large", "GET", "/v1/recommend?user=1&k=9999", "", 400, "bad_param"},
		{"recommend wrong method", "POST", "/v1/recommend", "", 405, "method_not_allowed"},
		{"similar missing item", "GET", "/v1/similar", "", 400, "bad_param"},
		{"similar unknown item", "GET", "/v1/similar?item=99999", "", 404, "not_found"},
		{"explain missing params", "GET", "/v1/explain", "", 400, "bad_param"},
		{"explain unknown item", "GET", "/v1/explain?user=1&item=99999", "", 404, "not_found"},
		{"stats ok", "GET", "/v1/stats", "", 200, ""},
		{"unknown route", "GET", "/v1/nope", "", 404, "not_found"},
		{"root route", "GET", "/does-not-exist", "", 404, "not_found"},
		{"unversioned health", "GET", "/health", "", 404, "not_found"},
		{"unversioned recommend", "GET", "/recommend?user=1&k=3", "", 404, "not_found"},
		{"unversioned similar", "GET", "/similar?item=2", "", 404, "not_found"},
		{"unversioned explain", "GET", "/explain?user=1&item=2", "", 404, "not_found"},
		{"batch ok", "POST", "/v1/recommend:batch", `{"users":[1,2,3],"k":4}`, 200, ""},
		{"batch wrong method", "GET", "/v1/recommend:batch", "", 405, "method_not_allowed"},
		{"batch bad json", "POST", "/v1/recommend:batch", `{"users":`, 400, "bad_param"},
		{"batch empty users", "POST", "/v1/recommend:batch", `{"users":[]}`, 400, "bad_param"},
		{"batch unknown user", "POST", "/v1/recommend:batch", `{"users":[1,99999]}`, 404, "not_found"},
		{"batch bad k", "POST", "/v1/recommend:batch", `{"users":[1],"k":-3}`, 400, "bad_param"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr, body := do(t, s, tc.method, tc.path, tc.body)
			if rr.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %v)", rr.Code, tc.wantStatus, body)
			}
			if tc.wantCode != "" {
				code, status := envelopeCode(t, body)
				if code != tc.wantCode {
					t.Fatalf("error code %q, want %q", code, tc.wantCode)
				}
				if int(status) != tc.wantStatus {
					t.Fatalf("envelope status %v != HTTP status %d", status, tc.wantStatus)
				}
			}
		})
	}
	_, stats := get(t, s, "/v1/stats")
	for ep := range stats["endpoints"].(map[string]any) {
		if ep != obs.OtherLabel && ep != "/metrics" && !strings.HasPrefix(ep, "/v1/") {
			t.Errorf("/v1/stats endpoints has unversioned key %q", ep)
		}
	}
}

func TestHealth(t *testing.T) {
	s, d := testServer(t)
	rr, body := get(t, s, "/v1/health")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if body["facility"] != d.Name {
		t.Fatalf("facility = %v", body["facility"])
	}
}

func TestRecommendHappyPath(t *testing.T) {
	s, d := testServer(t)
	rr, body := get(t, s, "/v1/recommend?user=3&k=5")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rr.Code, body)
	}
	recs := body["recommendations"].([]any)
	if len(recs) != 5 {
		t.Fatalf("got %d recs, want 5", len(recs))
	}
	first := recs[0].(map[string]any)
	if first["rank"].(float64) != 1 || first["name"] == "" {
		t.Fatalf("bad first rec: %v", first)
	}
	// Train positives must be excluded.
	trainSet := map[string]bool{}
	for _, it := range d.TrainByUser[3] {
		trainSet[d.Trace.Facility.Items[it].Name] = true
	}
	for _, r := range recs {
		if trainSet[r.(map[string]any)["name"].(string)] {
			t.Fatal("recommendation includes a training positive")
		}
	}
}

// TestRecommendCachedMatchesUncached pins the cache down: the second,
// cache-served response must be byte-identical to the first.
func TestRecommendCachedMatchesUncached(t *testing.T) {
	s, _ := testServer(t)
	rr1, _ := get(t, s, "/v1/recommend?user=7&k=10")
	rr2, _ := get(t, s, "/v1/recommend?user=7&k=10")
	if rr1.Body.String() != rr2.Body.String() {
		t.Fatalf("cached response differs:\n%s\nvs\n%s", rr1.Body, rr2.Body)
	}
	hits, _, _ := s.disp.CacheStats()
	if hits == 0 {
		t.Fatal("second identical request did not hit the cache")
	}
}

func TestSimilar(t *testing.T) {
	s, d := testServer(t)
	item := d.Train[0][1]
	rr, body := get(t, s, fmt.Sprintf("/v1/similar?item=%d&k=4", item))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rr.Code, body)
	}
	sim := body["similar"].([]any)
	if len(sim) != 4 {
		t.Fatalf("got %d similar items", len(sim))
	}
	for _, r := range sim {
		if int(r.(map[string]any)["item"].(float64)) == item {
			t.Fatal("item listed as similar to itself")
		}
	}
	// Determinism: repeating the request must reproduce the ranking.
	rr2, _ := get(t, s, fmt.Sprintf("/v1/similar?item=%d&k=4", item))
	if rr.Body.String() != rr2.Body.String() {
		t.Fatal("similar ranking is not deterministic across requests")
	}
}

// TestProbeSpread locks in the satellite bugfix: probes are spread
// across the whole matching user set instead of the 16 lowest IDs.
func TestProbeSpread(t *testing.T) {
	s, d := testServer(t)
	// Find the item with the most training users.
	best, bestLen := -1, 0
	for it, us := range s.usersByItem {
		if len(us) > bestLen {
			best, bestLen = it, len(us)
		}
	}
	if bestLen <= 2 {
		t.Skip("no item with enough training users")
	}
	if bestLen > DefaultMaxProbes {
		probes := s.probeUsers(best)
		if len(probes) != DefaultMaxProbes {
			t.Fatalf("got %d probes, want %d", len(probes), DefaultMaxProbes)
		}
		// The old code always returned the lowest user IDs; the fix
		// must reach past that prefix.
		low := append([]int(nil), s.usersByItem[best][:DefaultMaxProbes]...)
		same := true
		for i, p := range probes {
			if p != low[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("probe set is still the low-ID prefix")
		}
	}
	// Any probe set must be deterministic and free of duplicates.
	a, b := s.probeUsers(best), s.probeUsers(best)
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("probe selection not deterministic")
		}
		if seen[a[i]] {
			t.Fatalf("duplicate probe user %d", a[i])
		}
		seen[a[i]] = true
		if !d.InTrain(a[i], best) {
			t.Fatalf("probe user %d never queried item %d", a[i], best)
		}
	}
}

func TestSimilarNotFoundForColdItem(t *testing.T) {
	s, d := testServer(t)
	cold := -1
	for i := 0; i < d.NumItems; i++ {
		if len(s.usersByItem[i]) == 0 {
			cold = i
			break
		}
	}
	if cold < 0 {
		t.Skip("no cold item")
	}
	rr, body := get(t, s, fmt.Sprintf("/v1/similar?item=%d", cold))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("cold item status %d, want 404", rr.Code)
	}
	if code, _ := envelopeCode(t, body); code != "not_found" {
		t.Fatalf("cold item error code %q", code)
	}
}

func TestExplain(t *testing.T) {
	s, d := testServer(t)
	user := d.Train[0][0]
	item := d.Test[0][1]
	rr, body := get(t, s, fmt.Sprintf("/v1/explain?user=%d&item=%d", user, item))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rr.Code, body)
	}
	if body["itemName"] == "" {
		t.Fatal("missing item name")
	}
	// Paths may be empty for distant items but the field must exist.
	if _, ok := body["paths"]; !ok {
		t.Fatal("missing paths field")
	}
}

func TestRecommendBatch(t *testing.T) {
	s, _ := testServer(t)
	rr, body := do(t, s, http.MethodPost, "/v1/recommend:batch", `{"users":[0,1,2,3,4,5,6,7],"k":3}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rr.Code, body)
	}
	results := body["results"].([]any)
	if len(results) != 8 {
		t.Fatalf("got %d results, want 8", len(results))
	}
	for i, r := range results {
		res := r.(map[string]any)
		if int(res["user"].(float64)) != i {
			t.Fatalf("result %d is for user %v: order not preserved", i, res["user"])
		}
		if len(res["recommendations"].([]any)) != 3 {
			t.Fatalf("user %d: want 3 recs", i)
		}
	}
	// Batch results must match the single-user endpoint exactly.
	_, single := get(t, s, "/v1/recommend?user=2&k=3")
	b1, _ := json.Marshal(results[2].(map[string]any)["recommendations"])
	b2, _ := json.Marshal(single["recommendations"])
	if string(b1) != string(b2) {
		t.Fatalf("batch and single recommend disagree for user 2:\n%s\nvs\n%s", b1, b2)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	for i := 0; i < 5; i++ {
		get(t, s, "/v1/recommend?user=1&k=3")
	}
	get(t, s, "/v1/recommend?user=abc") // one 400
	rr, body := get(t, s, "/v1/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	eps := body["endpoints"].(map[string]any)
	rec := eps["/v1/recommend"].(map[string]any)
	if rec["count"].(float64) != 6 {
		t.Fatalf("recommend count %v, want 6", rec["count"])
	}
	if rec["errors"].(float64) != 1 {
		t.Fatalf("recommend errors %v, want 1", rec["errors"])
	}
	if rec["p50_ms"].(float64) < 0 {
		t.Fatalf("negative p50: %v", rec["p50_ms"])
	}
	cache := body["cache"].(map[string]any)
	// 5 identical requests: 1 miss + 4 hits.
	if cache["hits"].(float64) != 4 || cache["misses"].(float64) != 1 {
		t.Fatalf("cache hits/misses = %v/%v, want 4/1", cache["hits"], cache["misses"])
	}
	if hr := cache["hit_rate"].(float64); hr < 0.79 || hr > 0.81 {
		t.Fatalf("hit_rate %v, want 0.8", hr)
	}
}
