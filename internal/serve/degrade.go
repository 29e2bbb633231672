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
// missing model. The active scorer lives behind an atomic pointer in
// the dispatcher so it can be hot-swapped (admin reload, SIGHUP)
// without a restart, and with no trained scorer — snapshot absent,
// corrupt, or a reload that keeps failing — the server answers from a
// popularity-prior fallback ranker with "degraded": true instead of a
// 5xx. Load beyond the configured inflight cap is shed with 503 +
// Retry-After so the requests that are admitted keep their latency
// budget.

// Loader produces a fresh scorer for hot reload — typically by reading
// a snapshot file from disk. It must be safe to call repeatedly: each
// Reload retries it until it succeeds or the attempts run out.
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

// WithReloadPolicy tunes Reload's retry loop: attempts total tries
// and the initial backoff between them (doubling each retry).
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

// Degraded reports whether the server is currently answering from the
// popularity fallback. Readiness keys off it so load balancers prefer
// replicas with a real model.
func (s *Server) Degraded() bool { return s.disp.Degraded() }

// SetScorer atomically swaps the active scorer and invalidates the
// score-vector cache so no vector computed by the previous scorer can
// be served afterward. A nil scorer degrades to the popularity
// fallback.
func (s *Server) SetScorer(sc eval.Scorer) { s.disp.SetScorer(sc) }

// Reload pulls a fresh scorer from the configured Loader and swaps it
// in.
func (s *Server) Reload() error {
	_, err := s.reload()
	return err
}

// reload runs the loader under the retry policy and returns the shard 0
// outcome block. Reloads are serialized — a call arriving while
// another is swapping gets errReloadInFlight (409) instead of queueing
// behind work that would only re-read the same snapshot. When every
// load fails the previous state — trained or fallback — keeps serving.
func (s *Server) reload() (api.ShardReload, error) {
	if !s.reloadMu.TryLock() {
		return api.ShardReload{}, errReloadInFlight
	}
	defer s.reloadMu.Unlock()
	if s.loader == nil {
		return api.ShardReload{}, errNoLoader
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
	report, err := s.disp.Reload(loader, s.reloadAttempts, s.reloadBackoff)
	if err != nil {
		s.metrics.reloadFailures.Add(1)
	} else {
		s.metrics.reloads.Add(1)
	}
	return report, err
}

var errNoLoader = &apiError{
	Code:    "no_loader",
	Message: "hot reload is not configured for this server",
	Status:  http.StatusNotImplemented,
}

// errReloadInFlight is the 409 envelope for a reload requested while
// another is still swapping: reloads are serialized, and
// queueing a second one would only re-read the same snapshot, so the
// caller is told to retry after the current one finishes.
var errReloadInFlight = &apiError{
	Code:    "reload_in_flight",
	Message: "a reload is already in progress; retry when it completes",
	Status:  http.StatusConflict,
}

// handleReload is POST /v1/admin/reload: swap in a freshly loaded
// scorer and report the outcome as a one-element shards array, the
// shape cmd/router merges across backends. Failure keeps the previous
// scorer serving, so the error is informational and carries the shard
// block too.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	report, err := s.reload()
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
		}{Error: e, Shards: []api.ShardReload{report}})
		return
	}
	writeJSON(w, http.StatusOK, api.ReloadResponse{
		Degraded: s.Degraded(),
		Shards:   []api.ShardReload{report},
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
// traffic. A degraded server answers 503 so load balancers prefer
// replicas with a real model, while the body still explains the state
// and names the degraded shard (always shard 0).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Degraded() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "degraded",
			"degraded": true,
			"shards":   []int{0},
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
