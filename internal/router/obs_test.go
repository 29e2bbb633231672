package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/shard"
)

// tracedCluster is testCluster, but keeps the serve.Server handles so
// tests can read the backends' trace rings and registries.
func tracedCluster(t *testing.T, n int, opts ...serve.Option) (*Router, []*serve.Server) {
	t.Helper()
	d, m := testModelOnce()
	servers := make([]*serve.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = serve.New(d, m, opts...)
		ts := httptest.NewServer(servers[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	return rt, servers
}

func findTrace(t *testing.T, tr *obs.Tracer, traceID string) *obs.TraceData {
	t.Helper()
	for _, td := range tr.Recent(0) {
		if td.TraceID == traceID {
			return td
		}
	}
	return nil
}

// TestRouterTraceParenting is the cross-process tracing contract: one
// request through the router produces one distributed trace — the
// router mints the trace ID at ingress, and the backend's root span
// adopts that ID with the router's proxy span as its parent, so the
// two rings read together as a single span tree.
func TestRouterTraceParenting(t *testing.T) {
	rt, servers := tracedCluster(t, 2)
	const user = 3
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/recommend?user=%d&k=5", user), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(obs.TraceHeader)
	if !obs.ValidTraceID(traceID) {
		t.Fatalf("router response X-Trace-ID %q is not a minted ID", traceID)
	}

	// Router side: one trace with the root span and the proxy span.
	rtd := findTrace(t, rt.Tracer(), traceID)
	if rtd == nil {
		t.Fatalf("trace %s not in the router ring", traceID)
	}
	if rtd.Root != "router /v1/recommend" {
		t.Fatalf("router root span %q", rtd.Root)
	}
	var proxySpan string
	for _, sp := range rtd.Spans {
		if strings.HasPrefix(sp.Name, "proxy backend ") {
			proxySpan = sp.SpanID
		}
	}
	if proxySpan == "" {
		t.Fatalf("no proxy span in router trace: %+v", rtd.Spans)
	}

	// Backend side: the owning backend recorded the SAME trace ID, its
	// root span parented under the router's proxy span.
	owner := rt.BackendFor(shard.UserKey(user))
	btd := findTrace(t, servers[owner].Tracer(), traceID)
	if btd == nil {
		t.Fatalf("trace %s not in backend %d's ring", traceID, owner)
	}
	var backendRoot *obs.SpanData
	for i := range btd.Spans {
		if btd.Spans[i].Name == "http /v1/recommend" {
			backendRoot = &btd.Spans[i]
		}
	}
	if backendRoot == nil {
		t.Fatalf("backend trace has no http root span: %+v", btd.Spans)
	}
	if backendRoot.ParentID != proxySpan {
		t.Fatalf("backend root parent %q, want router proxy span %q",
			backendRoot.ParentID, proxySpan)
	}
	// The non-owning backend must not have seen the trace.
	if other := findTrace(t, servers[1-owner].Tracer(), traceID); other != nil {
		t.Fatalf("trace leaked to the non-owning backend")
	}
}

// Batch fan-out legs propagate too: each sub-batch's backend joins the
// same trace under a router call span.
func TestRouterBatchLegsShareTrace(t *testing.T) {
	rt, servers := tracedCluster(t, 2)
	code, _ := post(t, rt, "/v1/recommend:batch",
		[]byte(`{"users":[0,1,2,3,4,5,6,7],"k":3}`))
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	rtd := rt.Tracer().Recent(1)
	if len(rtd) != 1 {
		t.Fatalf("router ring holds %d traces, want 1", len(rtd))
	}
	traceID := rtd[0].TraceID
	callSpans := make(map[string]bool)
	for _, sp := range rtd[0].Spans {
		if strings.HasPrefix(sp.Name, "call backend ") {
			callSpans[sp.SpanID] = true
		}
	}
	if len(callSpans) < 2 {
		t.Fatalf("expected fan-out legs to both backends, got %d call spans", len(callSpans))
	}
	for i, srv := range servers {
		btd := findTrace(t, srv.Tracer(), traceID)
		if btd == nil {
			t.Fatalf("backend %d did not join trace %s", i, traceID)
		}
		root := btd.Spans[len(btd.Spans)-1]
		for _, sp := range btd.Spans {
			if sp.Name == "http /v1/recommend:batch" {
				root = sp
			}
		}
		if !callSpans[root.ParentID] {
			t.Fatalf("backend %d root parent %q is not a router call span", i, root.ParentID)
		}
	}
}

// A valid upstream trace ID is adopted at router ingress; junk is
// rejected and a fresh ID minted.
func TestRouterIngressAdoption(t *testing.T) {
	rt, _ := tracedCluster(t, 1)
	const upstream = "00000000deadbeef"
	req := httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	req.Header.Set(obs.TraceHeader, upstream)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.TraceHeader); got != upstream {
		t.Fatalf("valid upstream trace ID not adopted: got %q", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	req.Header.Set(obs.TraceHeader, "../../etc/passwd")
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	got := rec.Header().Get(obs.TraceHeader)
	if got == "../../etc/passwd" || !obs.ValidTraceID(got) {
		t.Fatalf("junk trace header handled wrong: %q", got)
	}
}

// Router-originated 502 envelopes carry the trace ID even though no
// backend ever answered.
func TestRouterErrorEnvelopeTraceID(t *testing.T) {
	rt, err := New(Config{
		Backends:      []string{"http://127.0.0.1:1"}, // nothing listens
		RetryAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/recommend?user=1&k=3", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", rec.Code)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("bad envelope: %s", rec.Body.String())
	}
	if env.Error.Code != "bad_gateway" {
		t.Fatalf("code %q", env.Error.Code)
	}
	if !obs.ValidTraceID(env.Error.TraceID) {
		t.Fatalf("502 envelope trace_id %q is not a minted ID", env.Error.TraceID)
	}
	if hdr := rec.Header().Get(obs.TraceHeader); hdr != env.Error.TraceID {
		t.Fatalf("envelope trace_id %q != response header %q", env.Error.TraceID, hdr)
	}
}

// The router's /metrics surface: router_* families parse, endpoint and
// backend labels stay within their fixed sets, and traffic lands in
// the right children.
func TestRouterMetricsExposition(t *testing.T) {
	rt, _ := tracedCluster(t, 2)
	get(t, rt, "/v1/recommend?user=1&k=3")
	get(t, rt, "/v1/recommend?user=2&k=3")
	get(t, rt, "/no/such/path")

	code, body := get(t, rt, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("router /metrics does not parse: %v", err)
	}
	ok2xx := obs.CounterValue(samples, "router_requests_total", func(l map[string]string) bool {
		return l["endpoint"] == "/v1/recommend" && l["class"] == "2xx"
	})
	if ok2xx != 2 {
		t.Fatalf("router_requests_total{/v1/recommend,2xx} = %v, want 2", ok2xx)
	}
	other4xx := obs.CounterValue(samples, "router_requests_total", func(l map[string]string) bool {
		return l["endpoint"] == "other" && l["class"] == "4xx"
	})
	if other4xx != 1 {
		t.Fatalf("unregistered path not bucketed as other/4xx: %v", other4xx)
	}
	h := obs.HistogramFromSamples(samples, "router_request_duration_ms",
		func(l map[string]string) bool { return l["endpoint"] == "/v1/recommend" })
	if h.Count != 2 {
		t.Fatalf("router latency histogram count %v, want 2", h.Count)
	}
	backendOK := obs.CounterValue(samples, "router_backend_requests_total", func(l map[string]string) bool {
		return l["class"] == "2xx"
	})
	if backendOK != 2 {
		t.Fatalf("backend 2xx exchanges = %v, want 2", backendOK)
	}

	// Label audit: endpoint ⊆ routes+other, backend ⊆ configured
	// indices, class ⊆ classes+error+other.
	endpoints := map[string]bool{"other": true}
	for ep := range rt.routes {
		endpoints[ep] = true
	}
	classes := map[string]bool{"error": true, "other": true}
	for _, c := range obs.StatusClasses[1:] {
		classes[c] = true
	}
	backends := map[string]bool{"0": true, "1": true}
	rt.Registry().EachFamily(func(f obs.FamilyInfo) {
		for _, child := range f.Children {
			for i, label := range f.Labels {
				v := child[i]
				switch label {
				case "endpoint":
					if !endpoints[v] {
						t.Errorf("%s: endpoint label %q outside the route set", f.Name, v)
					}
				case "class":
					if !classes[v] {
						t.Errorf("%s: class label %q outside the class set", f.Name, v)
					}
				case "backend":
					if !backends[v] {
						t.Errorf("%s: backend label %q outside the backend set", f.Name, v)
					}
				}
			}
		}
	})
}

// The router's merged /v1/stats carries one slo block per objective
// name with request counts summed across backends.
func TestRouterStatsMergesSLO(t *testing.T) {
	rt, _ := tracedCluster(t, 2)
	for u := 0; u < 6; u++ {
		get(t, rt, fmt.Sprintf("/v1/recommend?user=%d&k=3", u))
	}
	code, body := get(t, rt, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var st api.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.SLO) == 0 {
		t.Fatal("merged stats has no slo block")
	}
	names := make(map[string]int)
	for _, slo := range st.SLO {
		names[slo.Name]++
		if slo.Target <= 0 || slo.Target >= 1 {
			t.Fatalf("slo %q target %v out of range", slo.Name, slo.Target)
		}
	}
	for name, n := range names {
		if n != 1 {
			t.Fatalf("slo %q appears %d times in the merged block", name, n)
		}
	}
	var rec api.SLOStats
	for _, slo := range st.SLO {
		if slo.Endpoint == "/v1/recommend" {
			rec = slo
		}
	}
	if rec.Name == "" {
		t.Fatalf("no recommend-latency slo in merged block: %+v", st.SLO)
	}
	if rec.Total != 6 {
		t.Fatalf("merged recommend slo total %v, want 6 (summed across backends)", rec.Total)
	}
	if !rec.Healthy || rec.Compliance != 1 {
		t.Fatalf("healthy traffic evaluated unhealthy: %+v", rec)
	}
}
