package shard

import (
	"errors"
	"math"
	"time"

	"repro/internal/ann"
	"repro/internal/eval"
	"repro/internal/serve/api"
)

// DefaultMinRecall is the self-check floor below which a freshly built
// index is declared recall-suspect and discarded (the dispatcher keeps
// serving exhaustively).
const DefaultMinRecall = 0.85

// ErrNoEmbeddings reports that the current scorer has no
// embedding geometry (it is serving the popularity fallback), so
// semantic queries — which are defined on the embedding space, not on
// scores — cannot be answered at all, exactly or approximately.
var ErrNoEmbeddings = errors.New("shard: scorer has no embedding geometry")

// ANNConfig configures the approximate index.
type ANNConfig struct {
	Enabled   bool
	Index     ann.Config // construction/search parameters (zero fields take ann defaults)
	SyncBuild bool       // build synchronously on scorer swaps (tests; New always builds sync)
}

// Query carries the per-request scoring knobs threaded from the /v1
// surface: the requested mode (api.ModeExact / api.ModeANN; empty means
// exact), an optional ann search breadth override, and optional
// half-open entity windows restricting results to one facility of a
// federated snapshot. A window with Hi <= Lo (the zero value) is
// unrestricted; the serve layer fills the windows from the facility
// filter, exploiting that BuildFederated lays each facility's users
// and items out contiguously in the merged index space.
type Query struct {
	Mode string
	EF   int

	ItemLo, ItemHi int // restrict ranked items to [ItemLo, ItemHi)
	UserLo, UserHi int // restrict user-kind semantic results to [UserLo, UserHi)
}

func (q Query) restrictsItems() bool { return q.ItemHi > q.ItemLo }
func (q Query) restrictsUsers() bool { return q.UserHi > q.UserLo }

// acceptItem reports whether an item index passes the item window.
func (q Query) acceptItem(id int) bool {
	return !q.restrictsItems() || (id >= q.ItemLo && id < q.ItemHi)
}

// accepts reports whether a semantic-query result entity passes the
// window of its kind.
func (q Query) accepts(kind string, id int) bool {
	if kind == api.KindUser {
		return !q.restrictsUsers() || (id >= q.UserLo && id < q.UserHi)
	}
	return q.acceptItem(id)
}

// maskItems suppresses scores outside the item window in place — the
// exact-path counterpart of the ann accept filter. TopK skips -Inf, so
// masked items never surface.
func (q Query) maskItems(scores []float64) {
	if !q.restrictsItems() {
		return
	}
	neg := math.Inf(-1)
	lo, hi := q.ItemLo, q.ItemHi
	if lo > len(scores) {
		lo = len(scores)
	}
	if hi > len(scores) {
		hi = len(scores)
	}
	for i := 0; i < lo; i++ {
		scores[i] = neg
	}
	for i := hi; i < len(scores); i++ {
		scores[i] = neg
	}
}

// RankInfo reports how a ranking was actually produced, mirrored into
// the response "ranking" block: the requested mode, the effective ef
// when the index answered, and whether an ann request fell back to
// exhaustive scoring (index absent, still building, or discarded as
// recall-suspect).
type RankInfo struct {
	Mode     string
	EF       int
	Fallback bool
}

// annState is the frozen approximate view of its scorer: dual
// HNSW indexes over the item and user embedding rows plus the
// VectorScorer they were built from. It rides inside scorerState so an
// index can never outlive — or be consulted alongside — a scorer it
// was not built from.
type annState struct {
	vs       eval.VectorScorer
	items    *ann.Index
	users    *ann.Index
	buildDur time.Duration
}

// buildANN freezes sc's embedding matrices into HNSW indexes, then
// self-checks both against DefaultMinRecall; a recall-suspect build
// returns nil and the caller keeps serving exhaustively. Returns nil
// when sc has no embedding geometry.
func buildANN(sc eval.Scorer, cfg ANNConfig) *annState {
	vs, ok := sc.(eval.VectorScorer)
	if !ok || vs.Dim() == 0 {
		return nil
	}
	start := time.Now()
	items := ann.Build(vs.NumItems(), vs.Dim(), vs.ItemVector, cfg.Index)
	users := ann.Build(vs.NumUsers(), vs.Dim(), vs.UserVector, cfg.Index)
	st := &annState{vs: vs, items: items, users: users, buildDur: time.Since(start)}
	seed := cfg.Index.Seed
	if ann.SelfCheck(items, seed, 8, 10, 0) < DefaultMinRecall ||
		ann.SelfCheck(users, seed, 8, 10, 0) < DefaultMinRecall {
		return nil
	}
	return st
}

// attachANN publishes a built index if — and only if — the
// dispatcher still serves the state the build started from: a
// concurrent scorer swap wins the CAS and the stale index is dropped
// on the floor.
func (dp *Dispatcher) attachANN(prev *scorerState, a *annState) {
	if a == nil {
		return
	}
	next := &scorerState{scorer: prev.scorer, degraded: prev.degraded, ann: a}
	if !dp.cur.CompareAndSwap(prev, next) {
		return
	}
	// No cache invalidation: the scorer is unchanged, and the index
	// reproduces its arithmetic exactly.
	if dp.annBuildG != nil {
		dp.annBuildG.Set(float64(a.buildDur.Nanoseconds()) / 1e6)
		dp.annLevelsG.Set(float64(a.items.Levels()))
	}
}

// spawnANNBuild (re)builds the index for a freshly swapped state —
// asynchronously unless SyncBuild — and CAS-attaches it. If the state
// has moved on by then, the newer state is left untouched.
func (dp *Dispatcher) spawnANNBuild(st *scorerState) {
	if !dp.annCfg.Enabled {
		return
	}
	build := func() { dp.attachANN(st, buildANN(st.scorer, dp.annCfg)) }
	if dp.annCfg.SyncBuild {
		build()
		return
	}
	go build()
}

// resolveEF reports the effective search breadth: the request override
// when present, else the configured default, floored at k (Search
// cannot return k results with a narrower frontier).
func (a *annState) resolveEF(ef, k int) int {
	if ef <= 0 {
		ef = a.items.EfSearch()
	}
	if ef < k {
		ef = k
	}
	return ef
}

// annRecommendOn ranks user's top-k through the item index, excluding
// training positives via the accept filter — the same set MaskTrain
// suppresses on the exact path — composed with the query's item window
// when a facility filter is active. Scores are bit-identical to the
// exhaustive scorer's, so the two paths differ only by recall misses.
func (dp *Dispatcher) annRecommendOn(a *annState, user, k, ef int, q Query) Ranked {
	qv := a.vs.UserVector(user)
	var mask map[int]struct{}
	if train := dp.d.TrainByUser[user]; len(train) > 0 {
		mask = make(map[int]struct{}, len(train))
		for _, it := range train {
			mask[it] = struct{}{}
		}
	}
	var accept func(int) bool
	if mask != nil || q.restrictsItems() {
		accept = func(id int) bool {
			if !q.acceptItem(id) {
				return false
			}
			_, ok := mask[id]
			return !ok
		}
	}
	items, scores := a.items.Search(qv, k, ef, accept)
	return Ranked{Items: items, Scores: scores}
}

// ANNStats renders the /v1/stats "ann" block: enabled only while a
// live index is attached, with its build time and depth.
func (dp *Dispatcher) ANNStats() api.ANNStats {
	out := api.ANNStats{Enabled: dp.annCfg.Enabled}
	ef := dp.annCfg.Index.EfSearch
	if ef <= 0 {
		ef = ann.DefaultEfSearch
	}
	out.EfSearch = ef
	a := dp.state().ann
	if a == nil {
		out.Enabled = false
		return out
	}
	out.BuildMS = float64(a.buildDur.Nanoseconds()) / 1e6
	out.Levels = a.items.Levels()
	return out
}

// Neighbor is one ranked entity from a semantic query: a user or item
// with its inner-product score against the query point.
type Neighbor struct {
	Kind  string
	ID    int
	Score float64
}

// vectorOf resolves an entity reference to its embedding row.
func vectorOf(vs eval.VectorScorer, ref api.EntityRef) []float64 {
	if ref.Kind == api.KindUser {
		return vs.UserVector(ref.ID)
	}
	return vs.ItemVector(ref.ID)
}

// searchKind ranks the k entities of one kind nearest to qv, through
// the index when available, exhaustively over the embedding rows
// otherwise. skip suppresses anchor entities. usedANN reports which
// path ran.
func searchKind(a *annState, vs eval.VectorScorer, kind string, qv []float64, k, ef int, skip func(string, int) bool) (ids []int, scores []float64, usedANN bool) {
	accept := func(id int) bool { return skip == nil || !skip(kind, id) }
	if a != nil {
		ix := a.items
		if kind == api.KindUser {
			ix = a.users
		}
		ids, scores = ix.Search(qv, k, ef, accept)
		return ids, scores, true
	}
	n := vs.NumItems()
	row := vs.ItemVector
	if kind == api.KindUser {
		n = vs.NumUsers()
		row = vs.UserVector
	}
	ids, scores = exhaustiveTopK(n, row, qv, k, accept)
	return ids, scores, false
}

// exhaustiveTopK is the index-free nearest scan: same scores, same
// (score desc, ID asc) order, linear cost.
func exhaustiveTopK(n int, row func(int) []float64, qv []float64, k int, accept func(int) bool) ([]int, []float64) {
	ids := make([]int, 0, k)
	scores := make([]float64, 0, k)
	for i := 0; i < n; i++ {
		if accept != nil && !accept(i) {
			continue
		}
		v := row(i)
		var s float64
		for j := range qv {
			s += qv[j] * v[j]
		}
		// Insertion into the running top-k (k is request-bounded small).
		if len(ids) == k && s <= scores[k-1] {
			continue
		}
		pos := len(ids)
		for pos > 0 && (scores[pos-1] < s) {
			pos--
		}
		if len(ids) < k {
			ids = append(ids, 0)
			scores = append(scores, 0)
		}
		copy(ids[pos+1:], ids[pos:])
		copy(scores[pos+1:], scores[pos:])
		ids[pos], scores[pos] = i, s
	}
	return ids, scores
}

// mergeNeighbors interleaves per-kind rankings into one list ordered by
// score desc, ties toward items first then smaller IDs — deterministic
// regardless of which kinds contributed.
func mergeNeighbors(k int, kinds []string, lists [][]int, scores [][]float64) []Neighbor {
	heads := make([]int, len(lists))
	out := make([]Neighbor, 0, k)
	for len(out) < k {
		best := -1
		for li := range lists {
			if heads[li] >= len(lists[li]) {
				continue
			}
			if best < 0 {
				best = li
				continue
			}
			bs, ls := scores[best][heads[best]], scores[li][heads[li]]
			if ls > bs || (ls == bs && kinds[li] < kinds[best]) ||
				(ls == bs && kinds[li] == kinds[best] && lists[li][heads[li]] < lists[best][heads[best]]) {
				best = li
			}
		}
		if best < 0 {
			break
		}
		h := heads[best]
		out = append(out, Neighbor{Kind: kinds[best], ID: lists[best][h], Score: scores[best][h]})
		heads[best]++
	}
	return out
}

// semanticSearch answers one embedding-space query: rank the entities
// of the requested kinds nearest to qv, skipping anchors. It runs on
// the state st the request pinned; an absent index answers
// exhaustively with Fallback set when ann was requested.
func (dp *Dispatcher) semanticSearch(st *scorerState, qv []float64, k int, typ string, q Query, skip func(string, int) bool) ([]Neighbor, RankInfo, bool, error) {
	degraded := st.degraded
	vs, ok := st.scorer.(eval.VectorScorer)
	if !ok {
		return nil, RankInfo{}, degraded, ErrNoEmbeddings
	}
	a := st.ann
	if q.Mode == api.ModeExact {
		a = nil // exact explicitly requested: bypass the index
	}
	if q.restrictsItems() || q.restrictsUsers() {
		// Facility filter: entities outside the query's windows are
		// skipped exactly like anchors, on both the index and the
		// exhaustive path.
		base := skip
		skip = func(kind string, id int) bool {
			if !q.accepts(kind, id) {
				return true
			}
			return base != nil && base(kind, id)
		}
	}
	kinds := []string{typ}
	if typ == "any" {
		kinds = []string{api.KindItem, api.KindUser}
	}
	ids := make([][]int, len(kinds))
	scores := make([][]float64, len(kinds))
	info := RankInfo{Mode: api.ModeExact}
	anyANN := false
	ef := 0
	for i, kind := range kinds {
		var used bool
		var eff int
		if a != nil {
			eff = a.resolveEF(q.EF, k)
		}
		ids[i], scores[i], used = searchKind(a, vs, kind, qv, k, eff, skip)
		if used {
			anyANN = true
			ef = eff
		}
	}
	if anyANN {
		info = RankInfo{Mode: api.ModeANN, EF: ef}
	} else if q.Mode == api.ModeANN {
		info.Fallback = true
		dp.countANNFallback()
	}
	return mergeNeighbors(k, kinds, ids, scores), info, degraded, nil
}
