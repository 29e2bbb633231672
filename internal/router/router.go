// Package router is the multi-process face of sharded serving: a thin
// HTTP router that speaks the existing /v1 discovery protocol to N
// backend serve processes. Where internal/shard partitions scorer
// replicas inside one process, the router applies the same rendezvous
// hashing (shard.UserKey/ItemKey/Owner) to whole backends, so a
// deployment can scale past one machine without the client noticing:
// the router exposes the identical wire contract (internal/serve/api)
// the backends do.
//
// Routing rules mirror the in-process dispatcher:
//
//   - /v1/recommend and /v1/explain route to the user's owning backend
//     and /v1/similar to the item's, proxied byte-for-byte (status,
//     error envelopes, trace headers pass through untouched).
//   - /v1/query:nearest and /v1/query:analogy route to the backend
//     owning their anchor entity (the "entity" and "a" parameters),
//     proxied byte-for-byte like the single-key endpoints.
//   - /v1/recommend:batch splits the user list by owner, resolves the
//     batch-wide scoring mode (rejecting mixed-mode batches with the
//     canonical serve-side 400), stamps that mode on every sub-batch,
//     fans the sub-batches out concurrently, and reassembles the
//     per-user results in request order.
//   - /v1/health, /v1/health/ready, /v1/stats, and /v1/admin/reload
//     fan out to every backend and merge, so one degraded or
//     unreachable backend is visible without hiding the healthy rest.
//
// The router holds no model state; a backend that cannot be reached
// answers as a 502 bad_gateway envelope in the same error shape as
// everything else. Idempotent GETs are retried against their backend
// on transient failures (transport errors, intermediate 502s) with
// capped exponential backoff and jitter — see Config.RetryAttempts —
// so a backend restart looks like one slow request, not an error
// burst. POSTs are never retried.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/shard"
)

// DefaultTimeout bounds each backend round trip.
const DefaultTimeout = 15 * time.Second

// Retry defaults for idempotent GETs against a transiently failing
// backend (connection refused mid-restart, a 502 from an intermediate
// proxy). POSTs are never retried: a reload or batch score that timed
// out may still have executed.
const (
	DefaultRetryAttempts   = 3
	DefaultRetryBackoff    = 50 * time.Millisecond
	DefaultRetryMaxBackoff = 1 * time.Second
)

// maxBatchBody mirrors the serve-side recommend:batch body cap.
const maxBatchBody = 1 << 20

// Config assembles a Router.
type Config struct {
	// Backends are the base URLs of the serve processes, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]. Order defines
	// backend identity for consistent hashing: growing the list
	// reassigns only the keys the new backend wins.
	Backends []string

	// Timeout bounds each backend round trip; zero uses DefaultTimeout.
	Timeout time.Duration

	// HTTPClient overrides the transport (tests, custom pooling). Its
	// own Timeout is respected when set; otherwise Config.Timeout
	// applies per request.
	HTTPClient *http.Client

	// RetryAttempts is the total tries per idempotent GET exchange
	// against one backend (1 disables retries; 0 uses
	// DefaultRetryAttempts). Non-idempotent methods always get exactly
	// one try.
	RetryAttempts int

	// RetryBackoff is the initial delay before the first retry; it
	// doubles per attempt, with equal-magnitude random jitter, capped
	// at RetryMaxBackoff. Zeros use the defaults.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration

	// TraceRing is how many completed traces /v1/debug/traces retains;
	// zero uses DefaultTraceRing.
	TraceRing int
}

// DefaultTraceRing is the default trace-ring capacity.
const DefaultTraceRing = 128

// Router fans /v1 traffic out across the configured backends.
type Router struct {
	backends      []string
	hc            *http.Client
	timeout       time.Duration
	retryAttempts int
	retryBackoff  time.Duration
	retryMax      time.Duration
	mux           *http.ServeMux
	routes        map[string]bool // registered paths; the metrics label set
	handler       http.Handler    // mux wrapped in the observe middleware
	metrics       *routerMetrics
	tracer        *obs.Tracer
}

// New validates the backend list and builds the router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend is required")
	}
	rt := &Router{
		hc:            cfg.HTTPClient,
		timeout:       cfg.Timeout,
		retryAttempts: cfg.RetryAttempts,
		retryBackoff:  cfg.RetryBackoff,
		retryMax:      cfg.RetryMaxBackoff,
	}
	if rt.timeout <= 0 {
		rt.timeout = DefaultTimeout
	}
	if rt.retryAttempts <= 0 {
		rt.retryAttempts = DefaultRetryAttempts
	}
	if rt.retryBackoff <= 0 {
		rt.retryBackoff = DefaultRetryBackoff
	}
	if rt.retryMax <= 0 {
		rt.retryMax = DefaultRetryMaxBackoff
	}
	if rt.hc == nil {
		rt.hc = &http.Client{}
	}
	for _, b := range cfg.Backends {
		rt.backends = append(rt.backends, strings.TrimRight(b, "/"))
	}
	ring := cfg.TraceRing
	if ring <= 0 {
		ring = DefaultTraceRing
	}
	rt.metrics = newRouterMetrics(len(rt.backends))
	rt.tracer = obs.NewTracer(ring)

	rt.mux = http.NewServeMux()
	rt.routes = make(map[string]bool)
	route := func(path string, h http.HandlerFunc) {
		rt.routes[path] = true
		rt.mux.HandleFunc(path, h)
	}
	route("/v1/recommend", rt.byKey("user", shard.UserKey))
	route("/v1/explain", rt.byKey("user", shard.UserKey))
	route("/v1/similar", rt.byKey("item", shard.ItemKey))
	route("/v1/query:nearest", rt.byEntity("entity"))
	route("/v1/query:analogy", rt.byEntity("a"))
	route("/v1/recommend:batch", rt.handleBatch)
	route("/v1/health", rt.handleHealth)
	route("/v1/health/live", rt.handleLive)
	route("/v1/health/ready", rt.handleReady)
	route("/v1/stats", rt.handleStats)
	route("/v1/admin/reload", rt.handleReload)
	route("/metrics", rt.metrics.reg.Handler().ServeHTTP)
	route("/v1/debug/traces", obs.TracesHandler(rt.tracer).ServeHTTP)
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, api.NotFound("no such endpoint %q", r.URL.Path))
	})
	rt.metrics.prime(rt.routes, len(rt.backends))
	rt.handler = rt.observe(rt.mux)
	return rt, nil
}

// NumBackends reports the fan-out width.
func (rt *Router) NumBackends() int { return len(rt.backends) }

// BackendFor returns the index of the backend owning key under the
// shared rendezvous placement.
func (rt *Router) BackendFor(key uint64) int { return shard.Owner(key, len(rt.backends)) }

// ServeHTTP implements http.Handler through the observe middleware.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders a router-originated error envelope, stamping the
// request's trace ID so 502/503s minted here — where no backend ever
// answered — are still correlatable with /v1/debug/traces.
func writeError(w http.ResponseWriter, r *http.Request, e *api.Error) {
	if e.TraceID == "" {
		e.TraceID = obs.TraceID(r.Context())
	}
	writeJSON(w, e.Status, api.ErrorEnvelope{Error: e})
}

func badGateway(backend string, err error) *api.Error {
	return api.Errorf("bad_gateway", http.StatusBadGateway, "backend %s unreachable: %v", backend, err)
}

// byKey routes a single-entity GET to the owning backend, proxying the
// exchange byte-for-byte. A missing or malformed ID parameter goes to
// backend 0 so the canonical serve-side validation error comes back
// unmodified.
func (rt *Router) byKey(param string, key func(int) uint64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		idx := 0
		if v, err := strconv.Atoi(r.URL.Query().Get(param)); err == nil {
			idx = rt.BackendFor(key(v))
		}
		rt.proxy(w, r, idx)
	}
}

// byEntity routes a semantic-query GET to the backend owning its
// anchor entity ("kind:id" in param — the "entity" anchor of
// query:nearest, the "a" anchor of query:analogy), proxying the
// exchange byte-for-byte exactly like byKey. Malformed or missing
// anchors go to backend 0 so the canonical serve-side validation
// envelope comes back unmodified.
func (rt *Router) byEntity(param string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		idx := 0
		if ref, e := api.ParseEntityRef(r.URL.Query().Get(param)); e == nil {
			if ref.Kind == api.KindUser {
				idx = rt.BackendFor(shard.UserKey(ref.ID))
			} else {
				idx = rt.BackendFor(shard.ItemKey(ref.ID))
			}
		}
		rt.proxy(w, r, idx)
	}
}

// retryable reports whether one exchange outcome is worth retrying: a
// transport-level failure (connection refused, reset — the backend
// process is restarting) or a 502 from an intermediate. Anything the
// backend itself answered, including 5xx application errors, is final:
// re-asking would get the same deliberate answer.
func retryable(resp *http.Response, err error) bool {
	return err != nil || resp.StatusCode == http.StatusBadGateway
}

// do performs one backend exchange, retrying idempotent GETs on
// transient failures with capped exponential backoff and full jitter.
// The request context (carrying the per-exchange timeout) bounds the
// whole loop, so retries never extend the router's latency budget. The
// final attempt's outcome is returned verbatim — callers see exactly
// what a single-try exchange would have produced.
func (rt *Router) do(req *http.Request) (*http.Response, error) {
	attempts := 1
	if req.Method == http.MethodGet {
		attempts = rt.retryAttempts
	}
	backoff := rt.retryBackoff
	for attempt := 1; ; attempt++ {
		resp, err := rt.hc.Do(req)
		if !retryable(resp, err) || attempt >= attempts {
			return resp, err
		}
		rt.metrics.retries.Inc()
		if err == nil {
			// Drain so the transport can reuse the connection.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		delay := backoff + time.Duration(rand.Int63n(int64(backoff)+1))
		select {
		case <-req.Context().Done():
			if err == nil {
				err = req.Context().Err()
			}
			return nil, err
		case <-time.After(delay):
		}
		backoff *= 2
		if backoff > rt.retryMax {
			backoff = rt.retryMax
		}
	}
}

// proxy forwards the request to one backend and streams the response
// back unchanged: status, content type, trace and retry headers, body.
// The exchange runs under its own span, and the tracing headers are
// stamped on the sub-request so the backend's spans join this trace,
// parented under the proxy span.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, idx int) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
	defer cancel()
	ctx, sp := obs.StartSpan(ctx, "proxy backend "+strconv.Itoa(idx))
	defer sp.End()
	u := rt.backends[idx] + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, r.Body)
	if err != nil {
		writeError(w, r, badGateway(rt.backends[idx], err))
		return
	}
	req.Header = r.Header.Clone()
	propagate(req, sp)
	resp, err := rt.do(req)
	if err != nil {
		rt.metrics.observeBackend(idx, 0, true)
		writeError(w, r, badGateway(rt.backends[idx], err))
		return
	}
	defer resp.Body.Close()
	rt.metrics.observeBackend(idx, resp.StatusCode, false)
	sp.SetAttrInt("status", resp.StatusCode)
	for _, h := range []string{"Content-Type", "X-Trace-ID", "X-Request-ID", "Retry-After", "Allow"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// call performs one JSON exchange with a backend, decoding 2xx into
// out and non-2xx into the error envelope. Like proxy, the exchange
// runs under its own span and propagates the tracing headers, so every
// fan-out leg (batch sub-requests, health/stats/reload aggregation)
// parents the backend's spans under this router hop.
func (rt *Router) call(ctx context.Context, idx int, method, path string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, rt.timeout)
	defer cancel()
	ctx, sp := obs.StartSpan(ctx, "call backend "+strconv.Itoa(idx))
	defer sp.End()
	sp.SetAttr("path", path)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.backends[idx]+path, rd)
	if err != nil {
		return badGateway(rt.backends[idx], err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	propagate(req, sp)
	resp, err := rt.do(req)
	if err != nil {
		rt.metrics.observeBackend(idx, 0, true)
		return badGateway(rt.backends[idx], err)
	}
	defer resp.Body.Close()
	rt.metrics.observeBackend(idx, resp.StatusCode, false)
	sp.SetAttrInt("status", resp.StatusCode)
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return badGateway(rt.backends[idx], err)
	}
	if resp.StatusCode/100 != 2 {
		var env api.ErrorEnvelope
		if jsonErr := json.Unmarshal(raw, &env); jsonErr == nil && env.Error != nil {
			return env.Error
		}
		return api.Errorf("bad_gateway", http.StatusBadGateway,
			"backend %s: status %d: %s", rt.backends[idx], resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return badGateway(rt.backends[idx], err)
	}
	return nil
}

// handleBatch splits the user list across owning backends, fans the
// sub-batches out concurrently, and reassembles per-user results in
// request order. The merged response is exactly what one backend
// holding every user would have answered: the per-user rankings are
// deterministic, so reassembly is pure permutation.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, r, api.Errorf("method_not_allowed", http.StatusMethodNotAllowed,
			"%s not allowed; use POST", r.Method))
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBody))
	if err != nil {
		writeError(w, r, api.BadParam("unreadable body: %v", err))
		return
	}
	var req api.BatchRequest
	if err := json.Unmarshal(raw, &req); err != nil || len(req.Users) == 0 {
		// Forward the raw body to backend 0 so the canonical serve-side
		// validation envelope (invalid JSON, empty users) comes back.
		r.Body = io.NopCloser(bytes.NewReader(raw))
		rt.proxy(w, r, 0)
		return
	}
	// Resolve the batch-wide scoring mode before splitting: each
	// sub-batch must carry the same resolved mode, and a mixed-mode
	// batch must be rejected whole rather than split into sub-batches
	// that would each look uniform. A resolution failure forwards the
	// raw body so the canonical serve-side 400 envelope comes back.
	mode, modeErr := (api.Validator{}).ResolveBatchMode(&req)
	if modeErr != nil {
		r.Body = io.NopCloser(bytes.NewReader(raw))
		rt.proxy(w, r, 0)
		return
	}

	// Group users by owning backend, remembering request positions.
	groups := make([][]int, len(rt.backends))    // backend -> users
	positions := make([][]int, len(rt.backends)) // backend -> original indices
	for i, u := range req.Users {
		b := rt.BackendFor(shard.UserKey(u))
		groups[b] = append(groups[b], u)
		positions[b] = append(positions[b], i)
	}

	// Sub-batches run in ascending backend order, so when several fail
	// the lowest-indexed backend's envelope is the one returned.
	type sub struct {
		backend int
		resp    api.BatchResponse
		err     error
	}
	var subs []sub
	for b, users := range groups {
		if len(users) > 0 {
			subs = append(subs, sub{backend: b})
		}
	}
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(s *sub) {
			defer wg.Done()
			body, err := json.Marshal(api.BatchRequest{Users: groups[s.backend], K: req.K, Mode: mode})
			if err != nil {
				s.err = err
				return
			}
			s.err = rt.call(r.Context(), s.backend, http.MethodPost, "/v1/recommend:batch", body, &s.resp)
		}(&subs[i])
	}
	wg.Wait()

	out := api.BatchResponse{Results: make([]api.UserRecommendations, len(req.Users))}
	first := true
	for _, s := range subs {
		if s.err != nil {
			// Any sub-batch failure fails the whole request with the
			// backend's own envelope: partial batch answers would be
			// indistinguishable from complete ones.
			if ae, ok := s.err.(*api.Error); ok {
				writeError(w, r, ae)
				return
			}
			writeError(w, r, badGateway(rt.backends[s.backend], s.err))
			return
		}
		out.K = s.resp.K
		if s.resp.Degraded {
			out.Degraded = true
		}
		// Ranking merges like the dispatcher merges per-user info: any
		// sub-batch still in ann mode keeps the batch in ann mode (with
		// the widest ef), and a merged all-exact answer to an ann
		// request reads as a fallback.
		if first || s.resp.Ranking.Mode == api.ModeANN && out.Ranking.Mode != api.ModeANN {
			out.Ranking.Mode = s.resp.Ranking.Mode
			first = false
		}
		if s.resp.Ranking.EF > out.Ranking.EF {
			out.Ranking.EF = s.resp.Ranking.EF
		}
		if s.resp.Ranking.Fallback {
			out.Ranking.Fallback = true
		}
		for j, res := range s.resp.Results {
			out.Results[positions[s.backend][j]] = res
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// fanOut runs fn against every backend concurrently.
func (rt *Router) fanOut(fn func(idx int) error) []error {
	errs := make([]error, len(rt.backends))
	var wg sync.WaitGroup
	for i := range rt.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	healths := make([]api.Health, len(rt.backends))
	errs := rt.fanOut(func(i int) error {
		return rt.call(r.Context(), i, http.MethodGet, "/v1/health", nil, &healths[i])
	})
	merged := api.Health{Status: "ok"}
	for i, err := range errs {
		if err != nil {
			if ae, ok := err.(*api.Error); ok {
				writeError(w, r, ae)
				return
			}
			writeError(w, r, badGateway(rt.backends[i], err))
			return
		}
		if i == 0 {
			merged.Facility = healths[i].Facility
			merged.Users = healths[i].Users
			merged.Items = healths[i].Items
		}
		merged.Shards += healths[i].Shards
		if healths[i].Degraded {
			merged.Degraded = true
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

func (rt *Router) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady is ready only when every backend is ready: a degraded or
// unreachable backend flips the router to 503 so load balancers steer
// to a fully healthy cluster, while the body names the laggards.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Backend string `json:"backend"`
		Ready   bool   `json:"ready"`
	}
	state := make([]readiness, len(rt.backends))
	allReady := true
	rt.fanOut(func(i int) error {
		err := rt.call(r.Context(), i, http.MethodGet, "/v1/health/ready", nil, nil)
		state[i] = readiness{Backend: rt.backends[i], Ready: err == nil}
		if err != nil {
			allReady = false
		}
		return nil
	})
	if allReady {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "degraded": false})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":   "degraded",
		"degraded": true,
		"backends": state,
	})
}

// handleStats merges every backend's /v1/stats into one cluster view:
// counters and cache accounting sum; latency quantiles take the
// worst backend (a safe upper bound — per-backend detail stays behind
// each backend's own endpoint); the shards block concatenates every
// backend's shards with globally re-numbered IDs.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := make([]api.Stats, len(rt.backends))
	errs := rt.fanOut(func(i int) error {
		return rt.call(r.Context(), i, http.MethodGet, "/v1/stats", nil, &stats[i])
	})
	for i, err := range errs {
		if err != nil {
			if ae, ok := err.(*api.Error); ok {
				writeError(w, r, ae)
				return
			}
			writeError(w, r, badGateway(rt.backends[i], err))
			return
		}
	}
	merged := api.Stats{
		Facility:  stats[0].Facility,
		Limits:    stats[0].Limits,
		Ready:     true,
		Endpoints: make(map[string]api.EndpointStats),
	}
	// The ann block is enabled only when every backend has a live
	// index (one exhaustive-only backend makes cluster-wide ann claims
	// false); build cost and depth take the worst backend like the
	// latency quantiles do, and ef_search comes from backend 0 since
	// every backend publishes the same configured default.
	merged.ANN = stats[0].ANN
	shardID := 0
	for _, st := range stats {
		if !st.ANN.Enabled {
			merged.ANN.Enabled = false
		}
		if st.ANN.BuildMS > merged.ANN.BuildMS {
			merged.ANN.BuildMS = st.ANN.BuildMS
		}
		if st.ANN.Levels > merged.ANN.Levels {
			merged.ANN.Levels = st.ANN.Levels
		}
		if st.UptimeMS > merged.UptimeMS {
			merged.UptimeMS = st.UptimeMS
		}
		merged.Inflight += st.Inflight
		if !st.Ready {
			merged.Ready = false
		}
		merged.Degraded += st.Degraded
		merged.Shed += st.Shed
		merged.Reloads += st.Reloads
		merged.ReloadErr += st.ReloadErr
		merged.Cache.Hits += st.Cache.Hits
		merged.Cache.Misses += st.Cache.Misses
		merged.Cache.Entries += st.Cache.Entries
		merged.Cache.Cap += st.Cache.Cap
		for ep, es := range st.Endpoints {
			m := merged.Endpoints[ep]
			m.Count += es.Count
			m.Errors += es.Errors
			for cls, n := range es.Status {
				if m.Status == nil {
					m.Status = make(map[string]uint64)
				}
				m.Status[cls] += n
			}
			if es.P50ms > m.P50ms {
				m.P50ms = es.P50ms
			}
			if es.P95ms > m.P95ms {
				m.P95ms = es.P95ms
			}
			if es.P99ms > m.P99ms {
				m.P99ms = es.P99ms
			}
			merged.Endpoints[ep] = m
		}
		for _, sh := range st.Shards {
			sh.Shard = shardID
			shardID++
			merged.Shards = append(merged.Shards, sh)
		}
	}
	if merged.Cache.Hits+merged.Cache.Misses > 0 {
		merged.Cache.HitRate = float64(merged.Cache.Hits) / float64(merged.Cache.Hits+merged.Cache.Misses)
	}
	merged.SLO = mergeSLOs(stats)
	writeJSON(w, http.StatusOK, merged)
}

// mergeSLOs folds every backend's slo block into one cluster view per
// objective name: request counts sum and compliance/burn recompute
// from the summed counts (the declaration fields come from the first
// backend reporting the name — backends share one configuration). The
// window reports the widest evaluated span.
func mergeSLOs(stats []api.Stats) []api.SLOStats {
	var order []string
	byName := make(map[string]*api.SLOStats)
	for _, st := range stats {
		for _, slo := range st.SLO {
			m, ok := byName[slo.Name]
			if !ok {
				cp := slo
				byName[slo.Name] = &cp
				order = append(order, slo.Name)
				continue
			}
			m.Total += slo.Total
			m.Good += slo.Good
			if slo.WindowSeconds > m.WindowSeconds {
				m.WindowSeconds = slo.WindowSeconds
			}
		}
	}
	out := make([]api.SLOStats, 0, len(order))
	for _, name := range order {
		m := byName[name]
		m.Compliance = 1
		if m.Total > 0 {
			m.Compliance = m.Good / m.Total
		}
		m.BurnRate = (1 - m.Compliance) / (1 - m.Target)
		m.Healthy = m.Compliance >= m.Target
		out = append(out, *m)
	}
	return out
}

// handleReload fans the reload out to every backend and merges the
// per-shard reports (shard IDs re-numbered across backends). Any
// backend failure turns the aggregate into a 503 with the collected
// detail, while backends that succeeded keep their fresh scorers.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, r, api.Errorf("method_not_allowed", http.StatusMethodNotAllowed,
			"%s not allowed; use POST", r.Method))
		return
	}
	resps := make([]api.ReloadResponse, len(rt.backends))
	errs := rt.fanOut(func(i int) error {
		return rt.call(r.Context(), i, http.MethodPost, "/v1/admin/reload", nil, &resps[i])
	})
	out := api.ReloadResponse{Status: "reloaded"}
	var firstErr *api.Error
	shardID := 0
	for i, err := range errs {
		if err != nil {
			out.Status = "reload_failed"
			out.Degraded = true
			ae, ok := err.(*api.Error)
			if !ok {
				ae = badGateway(rt.backends[i], err)
			}
			if firstErr == nil {
				firstErr = ae
			}
			out.Shards = append(out.Shards, api.ShardReload{
				Shard: shardID, Status: "failed", Degraded: true, Error: ae.Message,
			})
			shardID++
			continue
		}
		if resps[i].Degraded {
			out.Degraded = true
		}
		for _, sh := range resps[i].Shards {
			sh.Shard = shardID
			shardID++
			out.Shards = append(out.Shards, sh)
		}
	}
	if firstErr != nil {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Error  *api.Error        `json:"error"`
			Shards []api.ShardReload `json:"shards,omitempty"`
		}{Error: api.Errorf("reload_failed", http.StatusServiceUnavailable, "%s", firstErr.Message), Shards: out.Shards})
		return
	}
	writeJSON(w, http.StatusOK, out)
}
