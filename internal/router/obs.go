// obs.go is the router's own telemetry: the router is a separate
// process from its backends, so it carries its own obs registry
// (router_* families on GET /metrics), its own trace ring
// (/v1/debug/traces), and the cross-process glue — it mints an
// X-Trace-ID at ingress when the client didn't send one, and stamps
// X-Trace-ID/X-Parent-Span-ID onto every proxied sub-request so each
// backend's spans parent under the router's span for the same request,
// forming one distributed trace.
//
// Label cardinality is bounded exactly like the serve layer's:
// endpoint labels come from the fixed route set plus "other", status
// classes from the fixed class list, and backend labels from the
// configured backend indices — no request content ever becomes a label
// value.
package router

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// routerMetrics is the router's instrument set on its own registry.
type routerMetrics struct {
	reg   *obs.Registry
	start time.Time

	requests *obs.CounterVec   // router_requests_total{endpoint,class}
	latency  *obs.HistogramVec // router_request_duration_ms{endpoint}
	backend  *obs.CounterVec   // router_backend_requests_total{backend,class}
	retries  *obs.Counter      // router_backend_retries_total
	inflight *obs.Gauge        // router_inflight_requests
}

// backendErrClass is the backend-outcome class for transport-level
// failures (connection refused, reset) where no status ever arrived.
const backendErrClass = "error"

func newRouterMetrics(numBackends int) *routerMetrics {
	reg := obs.NewRegistry()
	m := &routerMetrics{
		reg:   reg,
		start: time.Now(),
		requests: reg.NewCounterVec("router_requests_total",
			"Completed routed requests by normalized endpoint and status class.",
			"endpoint", "class"),
		latency: reg.NewHistogramVec("router_request_duration_ms",
			"Routed request latency in milliseconds by normalized endpoint.",
			obs.LatencyBuckets, "endpoint"),
		backend: reg.NewCounterVec("router_backend_requests_total",
			"Backend exchanges by backend index and outcome class.",
			"backend", "class"),
		retries: reg.NewCounter("router_backend_retries_total",
			"Idempotent GET exchanges retried after a transient backend failure."),
		inflight: reg.NewGauge("router_inflight_requests",
			"Requests currently being routed."),
	}
	reg.NewGaugeFunc("router_uptime_seconds",
		"Seconds since the router was constructed.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.NewGaugeFunc("router_backends",
		"Configured backend count.",
		func() float64 { return float64(numBackends) })
	return m
}

// prime creates every endpoint×class and backend×class child up front,
// fixing the label sets the scrape surface exposes.
func (m *routerMetrics) prime(routes map[string]bool, numBackends int) {
	add := func(ep string) {
		m.latency.With(ep)
		for _, class := range obs.StatusClasses {
			m.requests.With(ep, class)
		}
	}
	for ep := range routes {
		add(ep)
	}
	add(obs.OtherLabel)
	for b := 0; b < numBackends; b++ {
		idx := strconv.Itoa(b)
		for _, class := range obs.StatusClasses[2:] {
			m.backend.With(idx, class)
		}
		m.backend.With(idx, backendErrClass)
	}
}

// observeBackend records one backend exchange outcome. A transport
// failure (err != nil, no response) lands in the "error" class.
func (m *routerMetrics) observeBackend(idx int, status int, transportErr bool) {
	class := obs.StatusClass(status)
	if transportErr {
		class = backendErrClass
	}
	m.backend.With(strconv.Itoa(idx), class).Inc()
}

// normalizeEndpoint maps a request path onto the bounded endpoint
// label set.
func (rt *Router) normalizeEndpoint(path string) string {
	if rt.routes[path] {
		return path
	}
	return obs.OtherLabel
}

// observe is the router's outermost middleware: it adopts a propagated
// trace identity (or mints one at ingress — the router is usually the
// first hop), opens the router-side root span, echoes X-Trace-ID on
// the response, and records per-endpoint latency and status class.
func (rt *Router) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := rt.normalizeEndpoint(r.URL.Path)
		ctx, sp := obs.StartLinkedRootSpan(r.Context(), rt.tracer, "router "+endpoint,
			r.Header.Get(obs.TraceHeader), r.Header.Get(obs.ParentSpanHeader))
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		w.Header().Set(obs.TraceHeader, sp.TraceID())
		r = r.WithContext(ctx)

		rt.metrics.inflight.Inc()
		defer rt.metrics.inflight.Dec()
		defer sp.End()
		rec := obs.StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(&rec, r)
		sp.SetAttrInt("status", rec.Status)
		rt.metrics.requests.With(endpoint, obs.StatusClass(rec.Status)).Inc()
		rt.metrics.latency.With(endpoint).Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	})
}

// propagate stamps the distributed-tracing headers onto an outbound
// backend request: the shared trace ID plus this hop's span ID as the
// backend's parent, so the backend's root span nests under sp.
func propagate(req *http.Request, sp *obs.Span) {
	if sp == nil {
		return
	}
	if id := sp.TraceID(); obs.ValidTraceID(id) {
		req.Header.Set(obs.TraceHeader, id)
		req.Header.Set(obs.ParentSpanHeader, sp.SpanID())
	}
}

// Registry exposes the router's metrics registry (GET /metrics).
func (rt *Router) Registry() *obs.Registry { return rt.metrics.reg }

// Tracer exposes the router's trace ring (GET /v1/debug/traces).
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }
