package serve

import (
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/api"
)

// serveMetrics is the serving layer's view over the shared obs
// registry. One registry backs both exposition surfaces: GET /metrics
// renders the Prometheus text format, and /v1/stats renders the same
// instruments as the historical JSON schema (per-endpoint counts,
// status classes, and latency quantiles — now estimated from fixed
// histogram buckets instead of a sort-on-snapshot sample ring).
//
// Endpoint labels are normalized to the registered route set, with
// everything else bucketed as "other" (see normalizeEndpoint), so a
// scan of random 404 paths cannot grow label cardinality without
// bound.
type serveMetrics struct {
	reg   *obs.Registry
	start time.Time

	requests *obs.CounterVec   // serve_http_requests_total{endpoint,class}
	latency  *obs.HistogramVec // serve_http_request_duration_ms{endpoint}
	inflight *obs.Gauge

	// hot holds pre-resolved children for every registered endpoint,
	// built once by prime(); the per-request path then reads an
	// immutable map instead of going through the vec lookup (which
	// joins label values into a key per call).
	hot map[string]*endpointInstruments

	degraded       *obs.Counter
	shed           *obs.Counter
	reloads        *obs.Counter
	reloadFailures *obs.Counter

	// SLO evaluation (initSLOs): one monitor per declared objective,
	// reading the request instruments above, plus gauges mirroring the
	// evaluated status onto the Prometheus surface. The slo label set is
	// fixed at init, so cardinality is bounded by the declaration.
	slos          []*obs.SLOMonitor
	sloCompliance *obs.GaugeVec // serve_slo_compliance{slo}
	sloBurn       *obs.GaugeVec // serve_slo_burn_rate{slo}
	sloHealthy    *obs.GaugeVec // serve_slo_healthy{slo}
}

// endpointInstruments are one endpoint's pre-resolved children:
// classes is indexed like obs.StatusClasses.
type endpointInstruments struct {
	classes [len(obs.StatusClasses)]*obs.Counter
	latency *obs.Histogram
}

// newServeMetrics registers the serving instruments on a fresh
// registry. The cache, readiness, and uptime families are func-backed:
// their source of truth lives in the cache and the degradation state,
// and the registry reads them at scrape time instead of keeping a
// second counter that could drift.
func newServeMetrics(s *Server) *serveMetrics {
	reg := obs.NewRegistry()
	m := &serveMetrics{
		reg:   reg,
		start: time.Now(),
		requests: reg.NewCounterVec("serve_http_requests_total",
			"Completed HTTP requests by normalized endpoint and status class.",
			"endpoint", "class"),
		latency: reg.NewHistogramVec("serve_http_request_duration_ms",
			"HTTP request latency in milliseconds by normalized endpoint.",
			obs.LatencyBuckets, "endpoint"),
		inflight: reg.NewGauge("serve_http_inflight_requests",
			"Requests currently being handled."),
		degraded: reg.NewCounter("serve_degraded_requests_total",
			"Requests answered by the popularity fallback."),
		shed: reg.NewCounter("serve_shed_requests_total",
			"Requests shed at the inflight cap."),
		reloads: reg.NewCounter("serve_reloads_total",
			"Successful hot reloads of the model snapshot."),
		reloadFailures: reg.NewCounter("serve_reload_failures_total",
			"Hot reloads that exhausted their retries."),
	}
	reg.NewGaugeFunc("serve_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.NewGaugeFunc("serve_ready",
		"1 when a trained scorer is serving, 0 while degraded.",
		func() float64 {
			if s.Degraded() {
				return 0
			}
			return 1
		})
	reg.NewCounterFunc("serve_cache_hits_total",
		"Score-vector cache hits.",
		func() float64 { hits, _, _ := s.disp.CacheStats(); return float64(hits) })
	reg.NewCounterFunc("serve_cache_misses_total",
		"Score-vector cache misses.",
		func() float64 { _, misses, _ := s.disp.CacheStats(); return float64(misses) })
	reg.NewGaugeFunc("serve_cache_entries",
		"Score-vector cache entries currently resident.",
		func() float64 { _, _, entries := s.disp.CacheStats(); return float64(entries) })
	reg.NewGaugeFunc("serve_cache_capacity",
		"Score-vector cache capacity.",
		func() float64 { return float64(s.cacheSize) })
	return m
}

// prime pre-resolves children for every endpoint label (the registered
// routes plus the "other" bucket). Called once after route
// registration; also fixes the label sets Prometheus sees, so every
// endpoint×class series exists from the first scrape.
func (m *serveMetrics) prime(endpoints map[string]bool) {
	m.hot = make(map[string]*endpointInstruments, len(endpoints)+1)
	add := func(ep string) {
		ei := &endpointInstruments{latency: m.latency.With(ep)}
		for c, class := range obs.StatusClasses {
			ei.classes[c] = m.requests.With(ep, class)
		}
		m.hot[ep] = ei
	}
	for ep := range endpoints {
		add(ep)
	}
	add(obs.OtherLabel)
}

// initSLOs builds one monitor per declared objective over the primed
// instruments. An SLO with an endpoint reads that endpoint's latency
// histogram and 5xx counter; an SLO with Endpoint == "" covers all
// traffic (every primed endpoint, including "other"). Good requests
// are those within the latency objective AND not 5xx: the interpolated
// under-objective count minus the 5xx count, clamped at zero, so a
// fast error never counts as good. Must be called after prime.
func (m *serveMetrics) initSLOs(cfgs []obs.SLOConfig) {
	if len(cfgs) == 0 {
		return
	}
	m.sloCompliance = m.reg.NewGaugeVec("serve_slo_compliance",
		"Good-request fraction over each SLO's evaluated window.", "slo")
	m.sloBurn = m.reg.NewGaugeVec("serve_slo_burn_rate",
		"Error-budget burn multiplier per SLO (1 = sustainable).", "slo")
	m.sloHealthy = m.reg.NewGaugeVec("serve_slo_healthy",
		"1 when the SLO's compliance meets its target.", "slo")
	for _, cfg := range cfgs {
		var src obs.SLOSource
		if cfg.Endpoint != "" {
			ei, ok := m.hot[cfg.Endpoint]
			if !ok {
				continue // objective over an unregistered route: nothing to read
			}
			objective := cfg.ObjectiveMS
			src = func() (float64, float64) {
				return endpointGoodTotal(ei, objective)
			}
		} else {
			objective := cfg.ObjectiveMS
			hot := m.hot
			src = func() (float64, float64) {
				var total, good float64
				for _, ei := range hot {
					t, g := endpointGoodTotal(ei, objective)
					total += t
					good += g
				}
				return total, good
			}
		}
		m.slos = append(m.slos, obs.NewSLOMonitor(cfg, src))
		// Prime the gauges so every slo series exists from the first
		// scrape.
		m.sloCompliance.With(cfg.Name).Set(1)
		m.sloBurn.With(cfg.Name).Set(0)
		m.sloHealthy.With(cfg.Name).Set(1)
	}
}

// endpointGoodTotal reads one endpoint's cumulative (total, good)
// request counts for an SLO source.
func endpointGoodTotal(ei *endpointInstruments, objectiveMS float64) (total, good float64) {
	if objectiveMS > 0 {
		good, total = ei.latency.GoodCount(objectiveMS)
	} else {
		total = float64(ei.latency.Count())
		good = total
	}
	if bad := ei.classes[5].Value(); bad > 0 {
		good -= bad
		if good < 0 {
			good = 0
		}
	}
	return total, good
}

// evalSLOs evaluates every monitor, refreshes the slo gauges, and
// returns the statuses in declaration order — called by /v1/stats and
// before a /metrics scrape renders.
func (m *serveMetrics) evalSLOs() []api.SLOStats {
	if len(m.slos) == 0 {
		return nil
	}
	out := make([]api.SLOStats, len(m.slos))
	for i, mon := range m.slos {
		st := mon.Eval()
		out[i] = api.SLOStats{
			Name:          st.Name,
			Endpoint:      st.Endpoint,
			ObjectiveMS:   st.ObjectiveMS,
			Target:        st.Target,
			WindowSeconds: st.WindowSeconds,
			Total:         st.Total,
			Good:          st.Good,
			Compliance:    st.Compliance,
			BurnRate:      st.BurnRate,
			Healthy:       st.Healthy,
		}
		m.sloCompliance.With(st.Name).Set(st.Compliance)
		m.sloBurn.With(st.Name).Set(st.BurnRate)
		healthy := 0.0
		if st.Healthy {
			healthy = 1
		}
		m.sloHealthy.With(st.Name).Set(healthy)
	}
	return out
}

// observe records one completed request under the normalized endpoint.
func (m *serveMetrics) observe(endpoint string, status int, d time.Duration) {
	c := obs.StatusClassIndex(status)
	ms := float64(d.Nanoseconds()) / 1e6
	if ei, ok := m.hot[endpoint]; ok {
		ei.classes[c].Inc()
		ei.latency.Observe(ms)
		return
	}
	m.requests.With(endpoint, obs.StatusClasses[c]).Inc()
	m.latency.With(endpoint).Observe(ms)
}

// normalizeEndpoint maps a request path onto the bounded endpoint
// label set: a registered route keeps its path, everything else —
// scans, typos, junk — collapses into "other" so metric cardinality
// stays fixed no matter what traffic arrives.
func (s *Server) normalizeEndpoint(path string) string {
	if s.routes[path] {
		return path
	}
	return obs.OtherLabel
}

// statsSnapshot assembles the /v1/stats payload as a read over the
// registry, keeping the pre-registry JSON schema byte-compatible.
func (s *Server) statsSnapshot() api.Stats {
	hits, misses, entries := s.disp.CacheStats()
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	eps := make(map[string]api.EndpointStats)
	s.metrics.requests.Each(func(lv []string, c *obs.Counter) {
		endpoint, class := lv[0], lv[1]
		ep := eps[endpoint]
		n := uint64(c.Value())
		ep.Count += n
		if class == "4xx" || class == "5xx" {
			ep.Errors += n
		}
		if n > 0 && strings.HasSuffix(class, "xx") {
			if ep.Status == nil {
				ep.Status = make(map[string]uint64)
			}
			ep.Status[class] += n
		}
		eps[endpoint] = ep
	})
	s.metrics.latency.Each(func(lv []string, h *obs.Histogram) {
		ep := eps[lv[0]]
		ep.P50ms = h.Quantile(0.50)
		ep.P95ms = h.Quantile(0.95)
		ep.P99ms = h.Quantile(0.99)
		eps[lv[0]] = ep
	})
	var facilities []api.FacilityStats
	if s.fed != nil {
		facilities = make([]api.FacilityStats, len(s.fed.Parts))
		for i := range s.fed.Parts {
			ulo, uhi := s.fed.UserRange(i)
			ilo, ihi := s.fed.ItemRange(i)
			facilities[i] = api.FacilityStats{
				Name:  s.fed.Parts[i].Name,
				Users: uhi - ulo, Items: ihi - ilo,
				UserLo: ulo, UserHi: uhi,
				ItemLo: ilo, ItemHi: ihi,
			}
		}
	}
	return api.Stats{
		Facility:   s.d.Name,
		Facilities: facilities,
		UptimeMS:   float64(time.Since(s.metrics.start).Nanoseconds()) / 1e6,
		Inflight:   int64(s.metrics.inflight.Value()),
		Ready:      !s.Degraded(),
		Degraded:   uint64(s.metrics.degraded.Value()),
		Shed:       uint64(s.metrics.shed.Value()),
		Reloads:    uint64(s.metrics.reloads.Value()),
		ReloadErr:  uint64(s.metrics.reloadFailures.Value()),
		Limits:     s.limits,
		SLO:        s.metrics.evalSLOs(),
		Cache: api.CacheStats{
			Hits: hits, Misses: misses, HitRate: rate,
			Entries: entries, Cap: s.cacheSize,
		},
		ANN:       s.disp.ANNStats(),
		Ingest:    s.ingestStats(),
		Endpoints: eps,
		Shards:    s.disp.Stats(),
	}
}
