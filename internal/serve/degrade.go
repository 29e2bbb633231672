package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/serve/api"
)

// Graceful degradation: the server never holds a request hostage to a
// missing model. Each shard's active scorer lives behind an atomic
// pointer in the dispatcher so it can be hot-swapped (admin reload,
// SIGHUP) without a restart, and a shard with no trained scorer —
// snapshot absent, corrupt, or a reload that keeps failing — answers
// from a popularity-prior fallback ranker with "degraded": true
// instead of a 5xx, while its sibling shards keep serving at full
// quality. Load beyond the configured inflight cap is shed with 503 +
// Retry-After so the requests that are admitted keep their latency
// budget.

// Loader produces a fresh scorer for hot reload — typically by reading
// a snapshot file from disk. It must be safe to call repeatedly: a
// multi-shard reload invokes it once per shard so every replica gets
// its own scorer instance.
type Loader func() (eval.Scorer, error)

// WithLoader installs the scorer loader used by Reload (and therefore
// by POST /v1/admin/reload and SIGHUP handling in cmd/serve).
func WithLoader(l Loader) Option { return func(s *Server) { s.loader = l } }

// WithMaxInflight caps concurrently-admitted requests; excess traffic
// is shed with 503 + Retry-After. Health endpoints are exempt so
// orchestrator probes keep working under overload. Zero disables
// shedding.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxInflight = n
		}
	}
}

// WithReloadPolicy tunes Reload's retry loop: attempts total tries per
// shard and the initial backoff between them (doubling each retry).
func WithReloadPolicy(attempts int, backoff time.Duration) Option {
	return func(s *Server) {
		if attempts > 0 {
			s.reloadAttempts = attempts
		}
		if backoff > 0 {
			s.reloadBackoff = backoff
		}
	}
}

// The popularity-prior fallback ranker itself lives in eval
// (eval.Popularity): it is the same CSR-derived baseline the
// evaluation layer uses, so serving and eval share one definition of
// "popular" built from the same frozen CKG.

// Degraded reports whether ANY shard is currently serving from the
// popularity fallback. Readiness keys off this strictest view so load
// balancers prefer replicas where every shard has a real model; the
// per-shard picture is in /v1/stats.
func (s *Server) Degraded() bool { return s.disp.Degraded() }

// SetScorer atomically swaps the active scorer on every shard and
// invalidates their score-vector caches so no vector computed by the
// previous scorer can be served afterward. A nil scorer degrades to
// the popularity fallback.
func (s *Server) SetScorer(sc eval.Scorer) { s.disp.SetScorer(sc) }

// Reload pulls fresh scorers from the configured Loader and swaps them
// in shard by shard. It reports only the aggregate outcome; callers
// that need per-shard detail use ReloadShards.
func (s *Server) Reload() error {
	_, err := s.ReloadShards()
	return err
}

// ReloadShards reloads every shard (each with its own retry loop and
// exponential backoff) and returns the per-shard outcomes. Reloads are
// serialized — a call arriving while another is swapping shards gets
// errReloadInFlight (409) instead of queueing behind work that would
// only re-read the same snapshot. A shard whose loads all fail keeps
// its previous state —
// trained or fallback — serving, and its siblings still swap, so a
// partial failure degrades partially instead of globally.
func (s *Server) ReloadShards() ([]api.ShardReload, error) {
	if !s.reloadMu.TryLock() {
		return nil, errReloadInFlight
	}
	defer s.reloadMu.Unlock()
	if s.loader == nil {
		return nil, errNoLoader
	}
	loader := func() (eval.Scorer, error) {
		sc, err := s.loader()
		if err != nil && s.logger != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelWarn, "reload attempt failed",
				slog.String("error", err.Error()),
			)
		}
		return sc, err
	}
	reports, err := s.disp.Reload(loader, s.reloadAttempts, s.reloadBackoff)
	for _, rep := range reports {
		if rep.Status == "reloaded" {
			s.metrics.reloads.Add(1)
		} else {
			s.metrics.reloadFailures.Add(1)
		}
	}
	return reports, err
}

var errNoLoader = &apiError{
	Code:    "no_loader",
	Message: "hot reload is not configured for this server",
	Status:  http.StatusNotImplemented,
}

// errReloadInFlight is the 409 envelope for a reload requested while
// another is still swapping shards: reloads are serialized, and
// queueing a second one would only re-read the same snapshot, so the
// caller is told to retry after the current one finishes.
var errReloadInFlight = &apiError{
	Code:    "reload_in_flight",
	Message: "a reload is already in progress; retry when it completes",
	Status:  http.StatusConflict,
}

// handleReload is POST /v1/admin/reload: swap in freshly loaded
// scorers and report every shard's outcome. Failure keeps the previous
// scorers serving, so the error is informational; a partial failure
// returns the envelope plus the per-shard detail.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	reports, err := s.ReloadShards()
	if err != nil {
		if ae, ok := err.(*apiError); ok {
			s.writeError(w, r, ae)
			return
		}
		e := &apiError{
			Code:    "reload_failed",
			Message: err.Error(),
			Status:  http.StatusServiceUnavailable,
			TraceID: obs.TraceID(r.Context()),
		}
		writeJSON(w, e.Status, struct {
			Error  *apiError         `json:"error"`
			Shards []api.ShardReload `json:"shards,omitempty"`
		}{Error: e, Shards: reports})
		return
	}
	writeJSON(w, http.StatusOK, api.ReloadResponse{
		Degraded: s.Degraded(),
		Shards:   reports,
		Status:   "reloaded",
	})
}

// handleLive is GET /v1/health/live: process liveness only. It is
// always 200 while the process can serve HTTP — even degraded — so
// orchestrators do not restart a server that is usefully shedding or
// falling back.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady is GET /v1/health/ready: readiness for full-quality
// traffic. Any degraded shard answers 503 so load balancers prefer
// replicas with a real model on every shard, while the body still
// explains the state.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Degraded() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "degraded",
			"degraded": true,
			"shards":   s.disp.DegradedShards(),
			"reason":   "no trained scorer loaded; serving popularity fallback",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "degraded": false})
}

// shed is the admission-control middleware: beyond maxInflight
// concurrently-admitted requests, respond 503 with Retry-After rather
// than queueing work the deadline middleware would time out anyway.
// Health probes and the metrics scrape bypass the cap: an overloaded
// server is exactly when the scrapes matter most.
func (s *Server) shed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.maxInflight <= 0 || isHealthPath(r.URL.Path) || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		n := s.shedInflight.Add(1)
		defer s.shedInflight.Add(-1)
		if n > int64(s.maxInflight) {
			s.metrics.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			s.writeError(w, r, api.Overloaded())
			return
		}
		next.ServeHTTP(w, r)
	})
}

// retryAfterSeconds is the Retry-After hint on shed responses.
const retryAfterSeconds = 1

func isHealthPath(p string) bool {
	return p == "/v1/health" || p == "/v1/health/live" || p == "/v1/health/ready"
}
