package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsEndpointExposition scrapes GET /metrics through the full
// middleware stack and checks the payload is well-formed Prometheus
// text backed by the same registry /v1/stats reads.
func TestMetricsEndpointExposition(t *testing.T) {
	s, _ := testServer(t)
	get(t, s, "/v1/recommend?user=1&k=3")
	get(t, s, "/v1/recommend?user=1&k=3")
	get(t, s, "/v1/health")

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}

	// Every sample line must parse: name{labels} value, and every
	// family must carry HELP and TYPE headers before its samples.
	seenHelp := map[string]bool{}
	seenType := map[string]bool{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(rr.Body.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			seenHelp[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			seenType[strings.Fields(line)[2]] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil && line[sp+1:] != "+Inf" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	for _, fam := range []string{
		"serve_http_requests_total",
		"serve_http_request_duration_ms",
		"serve_http_inflight_requests",
		"serve_cache_hits_total",
		"serve_ready",
		"serve_uptime_seconds",
	} {
		if !seenHelp[fam] || !seenType[fam] {
			t.Fatalf("family %s missing HELP/TYPE headers", fam)
		}
	}

	// The scrape and /v1/stats must agree: both are views over one
	// registry, not parallel accounting.
	if got := samples[`serve_http_requests_total{endpoint="/v1/recommend",class="2xx"}`]; got != 2 {
		t.Fatalf("recommend 2xx sample = %v, want 2", got)
	}
	snap := s.statsSnapshot()
	if snap.Endpoints["/v1/recommend"].Count != 2 {
		t.Fatalf("stats recommend count = %d, want 2", snap.Endpoints["/v1/recommend"].Count)
	}
	if got := samples[`serve_cache_misses_total`]; got != float64(snap.Cache.Misses) {
		t.Fatalf("cache misses: scrape %v vs stats %d", got, snap.Cache.Misses)
	}
}

// TestEndpointCardinalityBounded is the regression test for the label
// cardinality leak: a scan of random 404 paths must not mint new
// endpoint labels — everything unregistered lands in "other".
func TestEndpointCardinalityBounded(t *testing.T) {
	s, _ := testServer(t)
	for i := 0; i < 200; i++ {
		get(t, s, fmt.Sprintf("/scan/%d/admin.php", i))
	}
	get(t, s, "/v1/health")

	labels := map[string]bool{}
	s.metrics.requests.Each(func(lv []string, _ *obs.Counter) {
		labels[lv[0]] = true
	})
	for l := range labels {
		if l != obs.OtherLabel && !s.routes[l] {
			t.Fatalf("unregistered endpoint label %q leaked into metrics", l)
		}
	}
	snap := s.statsSnapshot()
	if got := snap.Endpoints[obs.OtherLabel].Count; got != 200 {
		t.Fatalf("other bucket count = %d, want 200", got)
	}
	if len(snap.Endpoints) > len(s.routes)+1 {
		t.Fatalf("endpoint set grew past routes+other: %d labels", len(snap.Endpoints))
	}
}

// TestTraceEndToEnd drives one /v1/recommend request and verifies the
// resulting trace is retrievable from /v1/debug/traces with spans
// covering middleware (http root), handler, and the scorer call, all
// sharing the trace ID echoed in X-Trace-ID.
func TestTraceEndToEnd(t *testing.T) {
	s, _ := testServer(t)
	rr, _ := get(t, s, "/v1/recommend?user=2&k=3")
	traceID := rr.Header().Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID header on response")
	}

	drr, body := get(t, s, "/v1/debug/traces")
	if drr.Code != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces = %d", drr.Code)
	}
	raw, err := json.Marshal(body["traces"])
	if err != nil {
		t.Fatal(err)
	}
	var traces []obs.TraceData
	if err := json.Unmarshal(raw, &traces); err != nil {
		t.Fatalf("traces payload: %v", err)
	}
	var tr *obs.TraceData
	for i := range traces {
		if traces[i].TraceID == traceID {
			tr = &traces[i]
		}
	}
	if tr == nil {
		t.Fatalf("trace %s not found among %d retained traces", traceID, len(traces))
	}

	want := map[string]bool{
		"http /v1/recommend":    false, // middleware root span
		"handler /v1/recommend": false,
		"scorer.score":          false, // cache miss → scorer call
	}
	byID := map[string]obs.SpanData{}
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
		if sp.TraceID != traceID {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, traceID)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %q missing from trace: %+v", name, tr.Spans)
		}
	}
	// Parent links must resolve within the trace (root excepted).
	for _, sp := range tr.Spans {
		if sp.ParentID == "" {
			continue
		}
		if _, ok := byID[sp.ParentID]; !ok {
			t.Fatalf("span %s has dangling parent %s", sp.Name, sp.ParentID)
		}
	}
}

// TestErrorEnvelopeCarriesTraceID: failures must be correlatable with
// their trace without the caller capturing headers.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	s, _ := testServer(t)
	rr, body := get(t, s, "/v1/recommend?user=notanumber")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rr.Code)
	}
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("missing error envelope: %v", body)
	}
	tid, _ := env["trace_id"].(string)
	if tid == "" {
		t.Fatalf("error envelope has no trace_id: %v", env)
	}
	if hdr := rr.Header().Get("X-Trace-ID"); hdr != tid {
		t.Fatalf("envelope trace_id %q != X-Trace-ID %q", tid, hdr)
	}
}

// TestMetricsBypassesShedding: scrapes must get through while the
// server is at its inflight cap.
func TestMetricsBypassesShedding(t *testing.T) {
	s, _ := testServer(t, WithMaxInflight(1))
	// Saturate the cap synthetically.
	s.shedInflight.Add(1)
	defer s.shedInflight.Add(-1)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics while saturated = %d, want 200 (shed-exempt)", rr.Code)
	}
}
