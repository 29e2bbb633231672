package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The middleware stack, outermost first:
//
//	observe    → assigns X-Request-ID, opens the root span (X-Trace-ID),
//	             threads both through context in one request clone, and
//	             on the way out records the inflight gauge, per-endpoint
//	             latency/status metrics on the obs registry, and one
//	             structured log line
//	shed       → admission control beyond the inflight cap (degrade.go)
//	recover    → converts handler panics into enveloped 500s
//	deadline   → attaches the per-request timeout to the context
//
// recover sits inside observe so a panic is still recorded as a 500 in
// the metrics, the log, and the trace.

var requestCounter atomic.Uint64

const hexDigits = "0123456789abcdef"

// nextRequestID mints "req-XXXXXXXX" without fmt (hot path).
func nextRequestID() string {
	n := requestCounter.Add(1)
	var b [12]byte
	copy(b[:], "req-")
	for i := len(b) - 1; i >= 4; i-- {
		b[i] = hexDigits[n&0xf]
		n >>= 4
	}
	return string(b[:])
}

// RequestID returns the request's assigned ID, or "" outside a
// request. The ID lives in the obs context slot so log correlation and
// the serve API read the same value.
func RequestID(ctx context.Context) string {
	return obs.RequestIDFrom(ctx)
}

// observe is the outermost middleware: request identity, the root
// span, and request metrics in a single layer so the request is cloned
// once for the combined context instead of once per concern.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = nextRequestID()
		}
		endpoint := s.normalizeEndpoint(r.URL.Path)
		ctx := obs.ContextWithRequestID(r.Context(), id)
		// Adopt a propagated trace identity (router or another upstream)
		// so this process's spans join the caller's trace; junk headers
		// are rejected by validation and a fresh trace is minted.
		ctx, sp := obs.StartLinkedRootSpan(ctx, s.tracer, s.rootSpanName[endpoint],
			r.Header.Get(obs.TraceHeader), r.Header.Get(obs.ParentSpanHeader))
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		sp.SetAttr("request_id", id)
		hdr := w.Header()
		hdr.Set("X-Request-ID", id)
		hdr.Set(obs.TraceHeader, sp.TraceID())
		r = r.WithContext(ctx)

		s.metrics.inflight.Inc()
		defer s.metrics.inflight.Dec()
		defer sp.End() // idempotent; commits even on an aborting panic
		rec := obs.StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(&rec, r)
		elapsed := time.Since(start)
		sp.SetAttrInt("status", rec.Status)
		s.metrics.observe(endpoint, rec.Status, elapsed)
		if s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("uri", r.URL.RequestURI()),
				slog.Int("status", rec.Status),
				slog.Float64("duration_ms", float64(elapsed.Nanoseconds())/1e6),
			)
		}
	})
}

func (s *Server) recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if s.logger != nil {
					s.logger.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
						slog.String("method", r.Method),
						slog.String("path", r.URL.Path),
						slog.String("panic", fmt.Sprint(p)),
					)
				}
				// Best effort: if the handler already started the
				// body there is nothing safe left to write.
				s.writeError(w, r, &apiError{
					Code:    "internal",
					Message: "internal server error",
					Status:  http.StatusInternalServerError,
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) deadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.timeout <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
