package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/shard"
)

// The wire shapes (requests, responses, the uniform error envelope)
// live in internal/serve/api, shared with the typed client and the
// multi-process router; handlers here only decode, validate through
// api.Validator, route onto the dispatcher, and render.

// apiError is retained as an in-package name for the shared envelope
// payload.
type apiError = api.Error

func badParam(format string, args ...any) *apiError { return api.BadParam(format, args...) }
func notFound(format string, args ...any) *apiError { return api.NotFound(format, args...) }
func timeoutErr() *apiError                         { return api.Timeout() }

// writeError stamps the trace ID and writes the envelope. The error is
// copied before stamping so shared sentinel errors (errNoLoader) are
// never mutated across requests.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, e *apiError) {
	ec := *e
	if ec.TraceID == "" && r != nil {
		ec.TraceID = obs.TraceID(r.Context())
	}
	writeJSON(w, ec.Status, api.ErrorEnvelope{Error: &ec})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// queryDecoder centralizes query-parameter parsing: handlers declare
// what they need, then check Err once. The first failure wins.
// Semantic bounds (ID ranges, k limits) belong to api.Validator; the
// decoder only distinguishes missing/malformed input.
type queryDecoder struct {
	q   url.Values
	err *apiError
}

func decodeQuery(r *http.Request) *queryDecoder {
	return &queryDecoder{q: r.URL.Query()}
}

func (qd *queryDecoder) fail(format string, args ...any) {
	if qd.err == nil {
		qd.err = badParam(format, args...)
	}
}

// RequiredInt parses a mandatory integer parameter.
func (qd *queryDecoder) RequiredInt(name string) int {
	v := qd.q.Get(name)
	if v == "" {
		qd.fail("missing required parameter %q", name)
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		qd.fail("parameter %q must be an integer, got %q", name, v)
		return 0
	}
	return n
}

// OptionalInt parses an optional integer parameter, reporting whether
// it was present at all so callers can distinguish "omitted" (apply
// the default) from an explicit out-of-range value (reject).
func (qd *queryDecoder) OptionalInt(name string) (int, bool) {
	v := qd.q.Get(name)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		qd.fail("parameter %q must be an integer, got %q", name, v)
		return 0, false
	}
	return n, true
}

// Err returns the first parse failure, if any.
func (qd *queryDecoder) Err() *apiError { return qd.err }

// kParam resolves the optional k query parameter: omitted applies the
// default, present values are validated against the published limit.
func (s *Server) kParam(qd *queryDecoder) (int, *apiError) {
	k, present := qd.OptionalInt("k")
	if !present {
		return api.DefaultK, nil
	}
	if e := s.validate.K(k); e != nil {
		return 0, e
	}
	return k, nil
}

// rankParams resolves the mode/ef scoring knobs shared by the ranking
// endpoints. defaultMode fills an omitted mode: exact on recommend/
// similar (the proven path), ann on the semantic query endpoints.
func (s *Server) rankParams(qd *queryDecoder, defaultMode string) (shard.Query, *apiError) {
	mode := qd.q.Get("mode")
	if mode == "" {
		mode = defaultMode
	}
	mode, e := s.validate.Mode(mode)
	if e != nil {
		return shard.Query{}, e
	}
	ef, present := qd.OptionalInt("ef")
	if e := qd.Err(); e != nil {
		return shard.Query{}, e
	}
	if present {
		if e := s.validate.EF(ef); e != nil {
			return shard.Query{}, e
		}
	}
	return shard.Query{Mode: mode, EF: ef}, nil
}

// facilityParam resolves the optional facility filter of a federated
// snapshot into the query's entity windows: results are restricted to
// the named facility's contiguous user/item ranges in the merged index
// space. Returns the validated name ("" when unfiltered) for the
// response echo.
func (s *Server) facilityParam(qd *queryDecoder, q *shard.Query) (string, *apiError) {
	name := qd.q.Get("facility")
	if name == "" {
		return "", nil
	}
	if e := s.validate.Facility(name); e != nil {
		return "", e
	}
	pi := s.fed.PartByName(name)
	q.UserLo, q.UserHi = s.fed.UserRange(pi)
	q.ItemLo, q.ItemHi = s.fed.ItemRange(pi)
	return name, nil
}

// rankingInfo mirrors the dispatcher's report into the wire block.
func rankingInfo(in shard.RankInfo) api.RankingInfo {
	return api.RankingInfo{Mode: in.Mode, EF: in.EF, Fallback: in.Fallback}
}

// render decorates an aligned ranking with catalog metadata.
func (s *Server) render(rk shard.Ranked, scale float64) []api.Recommendation {
	cat := s.d.Trace.Facility
	recs := make([]api.Recommendation, 0, len(rk.Items))
	for rank, it := range rk.Items {
		item := cat.Items[it]
		recs = append(recs, api.Recommendation{
			Rank: rank + 1, Item: it, Name: item.Name,
			Site:     cat.Sites[item.Site].Name,
			DataType: cat.DataTypes[item.DataType].Name,
			Score:    rk.Scores[rank] * scale,
		})
	}
	return recs
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{
		Degraded: s.Degraded(),
		Facility: s.d.Name,
		Items:    s.d.NumItems,
		Shards:   1, // one serving state per process; cmd/router sums backends
		Status:   "ok",
		Users:    s.d.NumUsers,
	})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	qd := decodeQuery(r)
	user := qd.RequiredInt("user")
	if e := qd.Err(); e != nil {
		s.writeError(w, r, e)
		return
	}
	k, e := s.kParam(qd)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	if e := s.validate.User(user); e != nil {
		s.writeError(w, r, e)
		return
	}
	q, e := s.rankParams(qd, api.ModeExact)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	fac, e := s.facilityParam(qd, &q)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	rk, info, degraded := s.disp.Recommend(r.Context(), user, k, q)
	if degraded {
		s.metrics.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, api.RecommendResponse{
		Degraded:        degraded,
		Facility:        fac,
		Ranking:         rankingInfo(info),
		Recommendations: s.render(rk, 1),
		User:            user,
	})
}

func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var req api.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, r, &apiError{
				Code:    "bad_param",
				Message: fmt.Sprintf("request body exceeds %d bytes", maxBatchBody),
				Status:  http.StatusRequestEntityTooLarge,
			})
			return
		}
		s.writeError(w, r, badParam("invalid JSON body: %v", err))
		return
	}
	if e := s.validate.BatchSize(req.Users); e != nil {
		s.writeError(w, r, e)
		return
	}
	k, e := s.validate.KOrDefault(req.K)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	for _, u := range req.Users {
		if e := s.validate.User(u); e != nil {
			s.writeError(w, r, e)
			return
		}
	}
	mode, e := s.validate.ResolveBatchMode(&req)
	if e != nil {
		s.writeError(w, r, e)
		return
	}

	ranked, perUser, info := s.disp.RecommendBatch(r.Context(), req.Users, k, shard.Query{Mode: mode})
	degraded := false
	results := make([]api.UserRecommendations, len(req.Users))
	for i, u := range req.Users {
		results[i] = api.UserRecommendations{
			User:            u,
			Recommendations: s.render(ranked[i], 1),
			Degraded:        perUser[i],
		}
		if perUser[i] {
			degraded = true
		}
	}
	if degraded {
		s.metrics.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, api.BatchResponse{
		Degraded: degraded, K: k, Ranking: rankingInfo(info), Results: results,
	})
}

// probeUsers selects up to DefaultMaxProbes training users of an item,
// deterministically spread across the full matching set with a
// rotation seeded by the item ID — replacing the old scan that always
// took the 16 lowest user IDs and so biased every /similar answer
// toward early users.
func (s *Server) probeUsers(item int) []int {
	m := s.usersByItem[item]
	if len(m) <= DefaultMaxProbes {
		return m
	}
	probes := make([]int, DefaultMaxProbes)
	start := item % len(m)
	for j := range probes {
		probes[j] = m[(start+j*len(m)/DefaultMaxProbes)%len(m)]
	}
	return probes
}

// handleSimilar ranks items by CKG-embedding proximity to a target
// item, reusing the scorer's item space via a pseudo-query: the
// returned list is items whose score vectors co-rank with the target
// across a probe set of users. Probe selection stays here (it reads
// the serve-side users-by-item index); vector aggregation fans out
// over the probes on the dispatcher's bounded pool.
func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	qd := decodeQuery(r)
	item := qd.RequiredInt("item")
	if e := qd.Err(); e != nil {
		s.writeError(w, r, e)
		return
	}
	k, e := s.kParam(qd)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	if e := s.validate.Item(item); e != nil {
		s.writeError(w, r, e)
		return
	}
	q, e := s.rankParams(qd, api.ModeExact)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	probes := s.probeUsers(item)
	if len(probes) == 0 {
		s.writeError(w, r, notFound("item %d has no training interactions", item))
		return
	}
	rk, scale, info, degraded, err := s.disp.Similar(r.Context(), item, k, probes, q)
	if err != nil {
		s.writeError(w, r, timeoutErr())
		return
	}
	if degraded {
		s.metrics.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, api.SimilarResponse{
		Degraded: degraded,
		Item:     item,
		Ranking:  rankingInfo(info),
		Similar:  s.render(rk, scale),
	})
}

// entityParam decodes and validates one kind:id entity reference.
func (s *Server) entityParam(qd *queryDecoder, name string) (api.EntityRef, *apiError) {
	v := qd.q.Get(name)
	if v == "" {
		return api.EntityRef{}, badParam("missing required parameter %q", name)
	}
	ref, e := api.ParseEntityRef(v)
	if e != nil {
		return api.EntityRef{}, e
	}
	if e := s.validate.Entity(ref); e != nil {
		return api.EntityRef{}, e
	}
	return ref, nil
}

// renderNeighbors decorates ranked entities with catalog metadata
// (items only; users carry just their ID).
func (s *Server) renderNeighbors(ns []shard.Neighbor) []api.Neighbor {
	cat := s.d.Trace.Facility
	out := make([]api.Neighbor, len(ns))
	for i, n := range ns {
		an := api.Neighbor{Rank: i + 1, Kind: n.Kind, ID: n.ID, Score: n.Score}
		if n.Kind == api.KindItem {
			item := cat.Items[n.ID]
			an.Name = item.Name
			an.Site = cat.Sites[item.Site].Name
			an.DataType = cat.DataTypes[item.DataType].Name
		}
		out[i] = an
	}
	return out
}

// writeSemanticError maps dispatcher errors from the query endpoints
// onto the envelope: no embedding geometry → 503, deadline → 504.
func (s *Server) writeSemanticError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, shard.ErrNoEmbeddings) {
		s.metrics.degraded.Add(1)
		s.writeError(w, r, api.NoEmbeddings())
		return
	}
	s.writeError(w, r, timeoutErr())
}

// handleQueryNearest serves GET /v1/query:nearest: the k entities
// nearest to the anchor in embedding space (inner product). mode
// defaults to ann here — there is no legacy behavior to preserve —
// with ?mode=exact forcing the linear scan.
func (s *Server) handleQueryNearest(w http.ResponseWriter, r *http.Request) {
	qd := decodeQuery(r)
	ref, e := s.entityParam(qd, "entity")
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	k, e := s.kParam(qd)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	typ := qd.q.Get("type")
	if e := s.validate.TypeFilter(typ); e != nil {
		s.writeError(w, r, e)
		return
	}
	q, e := s.rankParams(qd, api.ModeANN)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	fac, e := s.facilityParam(qd, &q)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	if typ == "" {
		typ = ref.Kind
	}
	ns, info, degraded, err := s.disp.Nearest(r.Context(), ref, k, typ, q)
	if err != nil {
		s.writeSemanticError(w, r, err)
		return
	}
	if degraded {
		s.metrics.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, api.NearestResponse{
		Degraded:  degraded,
		Entity:    ref,
		Facility:  fac,
		Type:      typ,
		Ranking:   rankingInfo(info),
		Neighbors: s.renderNeighbors(ns),
	})
}

// handleQueryAnalogy serves GET /v1/query:analogy: entities nearest to
// e_a − e_b + e_c ("datasets like a, but shifted the way c differs
// from b").
func (s *Server) handleQueryAnalogy(w http.ResponseWriter, r *http.Request) {
	qd := decodeQuery(r)
	a, e := s.entityParam(qd, "a")
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	b, e := s.entityParam(qd, "b")
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	c, e := s.entityParam(qd, "c")
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	k, e := s.kParam(qd)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	typ := qd.q.Get("type")
	if e := s.validate.TypeFilter(typ); e != nil {
		s.writeError(w, r, e)
		return
	}
	q, e := s.rankParams(qd, api.ModeANN)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	fac, e := s.facilityParam(qd, &q)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	if typ == "" {
		typ = a.Kind
	}
	ns, info, degraded, err := s.disp.Analogy(r.Context(), a, b, c, k, typ, q)
	if err != nil {
		s.writeSemanticError(w, r, err)
		return
	}
	if degraded {
		s.metrics.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, api.AnalogyResponse{
		Degraded:  degraded,
		A:         a,
		B:         b,
		C:         c,
		Facility:  fac,
		Type:      typ,
		Ranking:   rankingInfo(info),
		Neighbors: s.renderNeighbors(ns),
	})
}

// handleExplain returns knowledge paths from the user's training
// history to the target item; the CSR walk runs on a pooled
// PathFinder.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	qd := decodeQuery(r)
	user := qd.RequiredInt("user")
	item := qd.RequiredInt("item")
	if e := qd.Err(); e != nil {
		s.writeError(w, r, e)
		return
	}
	if e := s.validate.User(user); e != nil {
		s.writeError(w, r, e)
		return
	}
	if e := s.validate.Item(item); e != nil {
		s.writeError(w, r, e)
		return
	}
	paths, degraded, err := s.disp.Explain(r.Context(), user, item)
	if err != nil {
		s.writeError(w, r, timeoutErr())
		return
	}
	writeJSON(w, http.StatusOK, api.ExplainResponse{
		Degraded: degraded,
		Item:     item,
		ItemName: s.d.Trace.Facility.Items[item].Name,
		Paths:    paths,
		User:     user,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}
