package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
)

// The traced run records spans from the benchmark's own code around
// calls into public surfaces of the program: the typed client methods,
// an http.Handler in front of every serve.Server and the router, and an
// eval.Scorer handed to serve.New. Spans of one request share the
// X-Trace-ID the benchmark injects on the client side, which the router
// already forwards to its backends. Nothing is written until the run
// ends; the spans live in memory.

// span is one timed call at a layer boundary.
type span struct {
	trace uint64 // 0 when the request carried no X-Trace-ID
	layer string // "client", "router" or "serve"
	name  string // op kind (client) or URL path (handlers)
	iv    interval
}

// recorder collects spans on one monotonic clock.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	scores []int64 // ScoreItems durations, ns
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(sp span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns the spans and scorer durations recorded so far and
// clears them, so each phase reads only its own.
func (r *recorder) snapshot() ([]span, []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, sc := r.spans, r.scores
	r.spans, r.scores = nil, nil
	return sp, sc
}

// handler times every request through next, keyed by the request's
// X-Trace-ID.
func (r *recorder) handler(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, req)
		end := time.Now()
		r.add(span{
			trace: parseTraceID(req.Header.Get("X-Trace-ID")),
			layer: layer, name: req.URL.Path,
			iv: interval{r.since(start), r.since(end)},
		})
	})
}

// timedScorer times every ScoreItems call. It embeds the model as an
// eval.VectorScorer so UserVector/ItemVector/NumUsers/Dim still reach
// the dispatcher: without them the server silently builds no HNSW
// index and every ann request falls back to exhaustive scoring.
type timedScorer struct {
	eval.VectorScorer
	rec *recorder
}

func (s *timedScorer) ScoreItems(user int, out []float64) {
	start := time.Now()
	s.VectorScorer.ScoreItems(user, out)
	d := int64(time.Since(start))
	s.rec.mu.Lock()
	s.rec.scores = append(s.rec.scores, d)
	s.rec.mu.Unlock()
}

// traceKey carries an op's trace ID through the typed client call.
type traceKey struct{}

func withTrace(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// traceTransport stamps X-Trace-ID from the request context.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(traceKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set("X-Trace-ID", formatTraceID(id))
	}
	return t.base.RoundTrip(req)
}

// formatTraceID renders the 16-lower-hex form the servers accept.
func formatTraceID(id uint64) string {
	s := strconv.FormatUint(id, 16)
	return strings.Repeat("0", 16-len(s)) + s
}

func parseTraceID(s string) uint64 {
	if len(s) != 16 {
		return 0
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// countingListener counts accepted connections; on a backend behind
// the router that is the router's dials.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// spanStats derives the per-layer timing metrics from one phase's
// spans. Client spans are the roots; the outermost server-side span of
// the same trace (router when present, else serve) is the child that
// client overhead is measured against, and the serve spans of the same
// trace are the children of a router span.
type spanStats struct {
	clientUS    map[string][]float64 // op kind -> client call µs
	handlerUS   map[string][]float64 // serve path -> handler µs
	overheadUS  []float64            // client − outermost server span
	routerSelf  []float64            // router − union of its backend spans
	serveBusyNS int64                // Σ serve handler durations
}

func analyzeSpans(spans []span) spanStats {
	st := spanStats{clientUS: map[string][]float64{}, handlerUS: map[string][]float64{}}
	byTrace := map[uint64][]span{}
	for _, sp := range spans {
		switch sp.layer {
		case "client":
			st.clientUS[sp.name] = append(st.clientUS[sp.name], nsToUS(sp.iv.dur()))
		case "serve":
			st.handlerUS[sp.name] = append(st.handlerUS[sp.name], nsToUS(sp.iv.dur()))
			st.serveBusyNS += sp.iv.dur()
		}
		if sp.trace != 0 {
			byTrace[sp.trace] = append(byTrace[sp.trace], sp)
		}
	}
	for _, group := range byTrace {
		var cl, rt *span
		var backends []interval
		for i := range group {
			switch group[i].layer {
			case "client":
				cl = &group[i]
			case "router":
				rt = &group[i]
			case "serve":
				backends = append(backends, group[i].iv)
			}
		}
		if rt != nil && len(backends) > 0 {
			st.routerSelf = append(st.routerSelf, nsToUS(selfTime(rt.iv, backends)))
		}
		if cl == nil {
			continue
		}
		var outer []interval
		if rt != nil {
			outer = []interval{rt.iv}
		} else {
			outer = backends
		}
		if len(outer) > 0 {
			st.overheadUS = append(st.overheadUS, nsToUS(selfTime(cl.iv, outer)))
		}
	}
	return st
}
