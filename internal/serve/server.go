// Package serve exposes a trained recommender as the facility-facing
// data-discovery HTTP service the paper motivates: "intelligent
// discovery and anticipatory delivery of data and data products from
// large facilities" (§VII). It wraps any eval.Scorer behind a
// versioned JSON API:
//
//	GET  /v1/health                      → service status
//	GET  /v1/health/live                 → process liveness (always 200)
//	GET  /v1/health/ready                → readiness (503 while degraded)
//	GET  /v1/recommend?user=12&k=10      → top-K data objects for a user
//	POST /v1/recommend:batch             → top-K for many users at once
//	GET  /v1/similar?item=42&k=10        → items close to an item in the CKG
//	GET  /v1/query:nearest?entity=item:42 → entities nearest in embedding space
//	GET  /v1/query:analogy?a=item:1&b=item:2&c=item:3 → analogy query e_a−e_b+e_c
//	GET  /v1/explain?user=12&item=42     → knowledge paths linking the
//	                                       user's history to an item
//	GET  /v1/stats                       → latency/cache/inflight metrics (JSON)
//	GET  /metrics                        → the same registry, Prometheus text format
//	GET  /v1/debug/traces                → recent request traces (bounded ring)
//	POST /v1/admin/reload                → hot-swap the model snapshot
//
// Serving state lives behind a shard dispatcher (internal/shard):
// WithShards partitions users and items across N in-process scorer
// replicas by consistent hashing of CKG entity IDs, each with its own
// score cache, degraded flag, and hot-swap path — the default single
// shard is bit-identical to the historical single-scorer server. Wire
// shapes and request validation are shared with the typed client and
// the multi-process router through internal/serve/api.
//
// Every request passes through a middleware stack providing request
// IDs, tracing (X-Trace-ID, spans from middleware through handlers
// into cache fills, scorer calls, and path finds), structured logs
// correlated by trace ID, latency metrics on the shared obs registry,
// load shedding, panic recovery, and per-request timeouts. All
// failures use one error envelope: {"error": {"code", "message",
// "status", "trace_id"}}.
//
// The server degrades instead of failing: a shard with no trained
// snapshot answers from a popularity-prior fallback with "degraded":
// true (see degrade.go), and models hot-swap at runtime via Reload —
// per shard — without dropping traffic.
package serve

import (
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/shard"
)

// Serving defaults and fixed bounds. Options override the shard count,
// cache size, timeout, batch limit and reload policy; the probe count
// and trace ring are fixed.
const (
	DefaultShards         = 1                      // scorer shards behind the dispatcher
	DefaultCacheSize      = 4096                   // cached per-user score vectors (total, split across shards)
	DefaultTimeout        = 10 * time.Second       // per-request deadline
	DefaultMaxProbes      = 16                     // probe users per /similar call
	DefaultMaxBatch       = api.DefaultMaxBatch    // users per recommend:batch call
	DefaultReloadAttempts = 3                      // tries per shard per Reload call
	DefaultReloadBackoff  = 100 * time.Millisecond // initial retry backoff
	DefaultTraceRing      = 128                    // retained traces for /v1/debug/traces
	maxBatchBody          = 1 << 20                // recommend:batch body limit (bytes)
)

// Server is the HTTP handler set for one facility's recommender.
type Server struct {
	d *dataset.Dataset

	// disp owns all serving state: per-shard scorers, score caches,
	// degraded flags, and the fan-out pool.
	disp *shard.Dispatcher

	// Hot-reload wiring (the dispatcher swaps scorers; Reload drives
	// it through the configured loader).
	loader   Loader
	reloadMu sync.Mutex

	// Admission control.
	maxInflight  int
	shedInflight atomic.Int64

	// The frozen CKG shared with training and eval (or restored from
	// the snapshot via WithCSR, so boot skips re-deriving adjacency),
	// and the users-by-item index backing /similar probe selection.
	csr         *graph.CSR
	usersByItem [][]int

	// Live ingestion (nil unless WithIngest): the query-event ledger
	// and the overlay applier behind POST /v1/ingest.
	ingest *ingestState

	// Federation layout (nil unless WithFederation): maps facility
	// names onto the contiguous user/item windows each part owns in the
	// merged entity space, backing the ?facility= filter and the
	// per-facility /v1/stats block.
	fed *dataset.Federated

	validate api.Validator
	metrics  *serveMetrics
	tracer   *obs.Tracer

	mux          *http.ServeMux
	routes       map[string]bool   // registered paths; the metrics label set
	rootSpanName map[string]string // endpoint → precomputed "http <endpoint>"
	handler      http.Handler      // mux wrapped in the middleware stack

	// Knobs.
	logger         *slog.Logger
	slos           []obs.SLOConfig
	slosSet        bool
	obsOff         bool
	timeout        time.Duration
	shards         int
	cacheSize      int
	limits         api.Limits
	reloadAttempts int
	reloadBackoff  time.Duration
	annCfg         shard.ANNConfig
}

// Option customizes a Server at construction time.
type Option func(*Server)

// WithSlog directs structured per-request logs to l (typically built
// with obs.NewLogger so records carry trace/request correlation). By
// default the server is silent (nil logger), which keeps tests and
// benchmarks quiet.
func WithSlog(l *slog.Logger) Option { return func(s *Server) { s.logger = l } }

// WithTimeout sets the per-request deadline enforced by the timeout
// middleware. Zero disables the deadline.
func WithTimeout(d time.Duration) Option { return func(s *Server) { s.timeout = d } }

// WithShards partitions serving across n scorer replicas behind the
// consistent-hash dispatcher. Each shard owns its own scorer, score
// cache, and degraded flag; n = 1 (the default) reproduces the
// single-scorer server exactly.
func WithShards(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.shards = n
		}
	}
}

// WithCacheSize sets the total LRU score-vector cache capacity
// (entries), divided evenly across shards.
func WithCacheSize(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.cacheSize = n
		}
	}
}

// WithLimits overrides the published request bounds (max k, max batch
// size, max ann search breadth); they surface in the /v1/stats
// "limits" block.
func WithLimits(l api.Limits) Option {
	return func(s *Server) {
		if l.MaxK > 0 {
			s.limits.MaxK = l.MaxK
		}
		if l.MaxBatch > 0 {
			s.limits.MaxBatch = l.MaxBatch
		}
		if l.MaxEF > 0 {
			s.limits.MaxEF = l.MaxEF
		}
		if l.MaxIngest > 0 {
			s.limits.MaxIngest = l.MaxIngest
		}
	}
}

// WithANN overrides the approximate-index configuration (construction
// parameters, self-check floor). The index is on by default whenever
// the scorer exposes embedding vectors; this option tunes it.
func WithANN(cfg shard.ANNConfig) Option {
	return func(s *Server) {
		cfg.Enabled = true
		s.annCfg = cfg
	}
}

// WithoutANN disables the approximate index entirely: mode=ann
// requests answer exhaustively with ranking.fallback=true, and the
// semantic query endpoints scan the embedding rows linearly.
func WithoutANN() Option {
	return func(s *Server) { s.annCfg = shard.ANNConfig{Enabled: false} }
}

// WithFederation declares the served dataset a federated snapshot
// (dataset.BuildFederated over N facility schemas): the ranking and
// semantic-query endpoints accept a ?facility= filter restricting
// results to one member facility's entities, and /v1/stats gains a
// per-facility block. fed.Dataset must be the dataset the server is
// constructed over.
func WithFederation(fed *dataset.Federated) Option { return func(s *Server) { s.fed = fed } }

// Defaults for the declarative SLO block (DefaultSLOs / WithSLOs).
const (
	DefaultSLOObjectiveMS = 250             // per-endpoint latency objective
	DefaultSLOTarget      = 0.99            // promised good fraction
	DefaultSLOWindow      = 5 * time.Minute // evaluation window
)

// DefaultSLOs declares the stock objective set: one availability SLO
// over all traffic (good = non-5xx) plus per-endpoint latency SLOs on
// the hot read paths (good = answered within objectiveMS and not 5xx).
// objectiveMS <= 0, target outside (0,1), and window <= 0 fall back to
// the Default* constants.
func DefaultSLOs(objectiveMS, target float64, window time.Duration) []obs.SLOConfig {
	if objectiveMS <= 0 {
		objectiveMS = DefaultSLOObjectiveMS
	}
	if target <= 0 || target >= 1 {
		target = DefaultSLOTarget
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	cfgs := []obs.SLOConfig{
		{Name: "availability", Target: target, Window: window},
	}
	for name, ep := range map[string]string{
		"recommend_latency": "/v1/recommend",
		"batch_latency":     "/v1/recommend:batch",
		"similar_latency":   "/v1/similar",
		"nearest_latency":   "/v1/query:nearest",
	} {
		cfgs = append(cfgs, obs.SLOConfig{
			Name: name, Endpoint: ep,
			ObjectiveMS: objectiveMS, Target: target, Window: window,
		})
	}
	// Deterministic declaration order for stats output and tests.
	sort.Slice(cfgs[1:], func(i, j int) bool { return cfgs[1+i].Name < cfgs[1+j].Name })
	return cfgs
}

// WithSLOs declares the server's service-level objectives, replacing
// the default set (DefaultSLOs with stock parameters). Calling it with
// no arguments disables SLO evaluation entirely. Objectives are
// evaluated lazily on /v1/stats and /metrics reads; each appears in
// the stats "slo" block and as serve_slo_* gauges labeled by name.
func WithSLOs(cfgs ...obs.SLOConfig) Option {
	return func(s *Server) {
		s.slos = cfgs
		s.slosSet = true
	}
}

// withoutObs strips the telemetry from the request path — no metrics,
// no spans, no request IDs, no logging — leaving admission control,
// panic recovery, and deadlines in place. It exists solely so the
// overhead-budget regression test can benchmark the full stack against
// a stubbed one; it is deliberately unexported.
func withoutObs() Option { return func(s *Server) { s.obsOff = true } }

// WithCSR serves graph queries (/explain, the degraded popularity
// prior) from an already-frozen CSR — typically one restored from a
// model snapshot — instead of re-freezing the dataset's CKG at boot.
// The CSR must describe the same entity space as the dataset.
func WithCSR(c *graph.CSR) Option { return func(s *Server) { s.csr = c } }

// New builds a Server over a dataset and a trained scorer. A nil
// scorer is allowed: the server boots degraded (every shard on the
// popularity fallback) until SetScorer or Reload installs a real one.
func New(d *dataset.Dataset, scorer eval.Scorer, opts ...Option) *Server {
	s := &Server{
		d:              d,
		timeout:        DefaultTimeout,
		shards:         DefaultShards,
		cacheSize:      DefaultCacheSize,
		limits:         api.DefaultLimits(),
		reloadAttempts: DefaultReloadAttempts,
		reloadBackoff:  DefaultReloadBackoff,
		annCfg:         shard.ANNConfig{Enabled: true},
		routes:         make(map[string]bool),
	}
	for _, o := range opts {
		o(s)
	}

	if s.csr == nil {
		s.csr = d.CSR()
	}
	s.usersByItem = make([][]int, d.NumItems)
	for _, p := range d.Train {
		s.usersByItem[p[1]] = append(s.usersByItem[p[1]], p[0])
	}

	s.disp = shard.New(shard.Config{
		Shards:    s.shards,
		CacheSize: s.cacheSize,
		Dataset:   d,
		CSR:       s.csr,
		Fallback:  eval.Popularity(d, s.csr),
		Scorer:    scorer,
		ANN:       s.annCfg,
	})
	s.validate = api.Validator{Limits: s.limits, NumUsers: d.NumUsers, NumItems: d.NumItems}
	if s.fed != nil {
		if s.fed.Dataset != d {
			panic("serve.New: WithFederation dataset does not match the served dataset")
		}
		names := make([]string, len(s.fed.Parts))
		for i := range s.fed.Parts {
			names[i] = s.fed.Parts[i].Name
		}
		s.validate.Facilities = names
	}
	s.metrics = newServeMetrics(s)
	s.disp.Register(s.metrics.reg)
	if s.ingest != nil {
		s.ingest.app.Register(s.metrics.reg, s.ingest.led)
	}
	s.tracer = obs.NewTracer(DefaultTraceRing)

	s.mux = http.NewServeMux()
	s.route("/v1/health", http.MethodGet, s.handleHealth)
	s.route("/v1/health/live", http.MethodGet, s.handleLive)
	s.route("/v1/health/ready", http.MethodGet, s.handleReady)
	s.route("/v1/recommend", http.MethodGet, s.handleRecommend)
	s.route("/v1/recommend:batch", http.MethodPost, s.handleRecommendBatch)
	s.route("/v1/similar", http.MethodGet, s.handleSimilar)
	s.route("/v1/query:nearest", http.MethodGet, s.handleQueryNearest)
	s.route("/v1/query:analogy", http.MethodGet, s.handleQueryAnalogy)
	s.route("/v1/explain", http.MethodGet, s.handleExplain)
	s.route("/v1/stats", http.MethodGet, s.handleStats)
	s.route("/v1/admin/reload", http.MethodPost, s.handleReload)
	if s.ingest != nil {
		s.route("/v1/ingest", http.MethodPost, s.handleIngest)
		s.route("/v1/admin/compact", http.MethodPost, s.handleCompact)
	}
	// /metrics refreshes the slo gauges before rendering so a scrape
	// always reads freshly evaluated compliance.
	promHandler := s.metrics.reg.Handler()
	s.route("/metrics", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		s.metrics.evalSLOs()
		promHandler.ServeHTTP(w, r)
	})
	s.route("/v1/debug/traces", http.MethodGet, obs.TracesHandler(s.tracer).ServeHTTP)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, r, notFound("no such endpoint %q", r.URL.Path))
	})
	s.metrics.prime(s.routes)
	if !s.slosSet {
		s.slos = DefaultSLOs(DefaultSLOObjectiveMS, DefaultSLOTarget, DefaultSLOWindow)
	}
	s.metrics.initSLOs(s.slos)
	s.rootSpanName = make(map[string]string, len(s.routes)+1)
	for ep := range s.routes {
		s.rootSpanName[ep] = "http " + ep
	}
	s.rootSpanName[obs.OtherLabel] = "http " + obs.OtherLabel

	if s.obsOff {
		s.handler = s.shed(s.recover(s.deadline(s.mux)))
	} else {
		s.handler = s.observe(s.shed(s.recover(s.deadline(s.mux))))
	}
	return s
}

// Registry exposes the server's metrics registry so embedding callers
// (cmd/serve, tests) can register additional instruments on the same
// exposition surface.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Tracer exposes the server's trace ring.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Dispatcher exposes the shard dispatcher for embedding callers that
// need shard-level control (tests, cmd/serve diagnostics).
func (s *Server) Dispatcher() *shard.Dispatcher { return s.disp }

// ServeHTTP implements http.Handler through the middleware stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// InvalidateCache drops every shard's cached score vectors. Call after
// swapping in retrained model weights so subsequent requests re-score.
func (s *Server) InvalidateCache() { s.disp.Invalidate() }

// route registers a handler with method enforcement that keeps 405s
// inside the error envelope (the stdlib mux would answer plain text),
// records the path in the normalized endpoint set, and wraps the
// handler in its own span so traces separate middleware time from
// handler time.
func (s *Server) route(path, method string, h http.HandlerFunc) {
	s.routes[path] = true
	spanName := "handler " + path
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			s.writeError(w, r, &apiError{
				Code:    "method_not_allowed",
				Message: r.Method + " not allowed; use " + method,
				Status:  http.StatusMethodNotAllowed,
			})
			return
		}
		if s.obsOff {
			h(w, r)
			return
		}
		ctx, sp := obs.StartSpan(r.Context(), spanName)
		defer sp.End()
		h(w, r.WithContext(ctx))
	})
}
