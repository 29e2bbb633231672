// Package shard holds one process's serving state behind a dispatcher:
// the hot-swappable scorer behind an atomic pointer, the LRU
// score-vector cache with its invalidation generation, the path-finder
// pool, inflight/request accounting and the degraded flag. Every
// in-process request routes through the one state; recommend:batch and
// the /similar probe aggregation still fan out on a bounded pool, which
// is request parallelism, not sharding.
//
// Multi-shard serving is cmd/router's job: it places users and items
// on whole serve processes by rendezvous hashing of their CKG entity
// IDs (hash.go), so every backend holds exactly this one state. The
// wire surface keeps its shard vocabulary — /v1/health reports
// "shards":1, /v1/stats and /v1/admin/reload carry one shard:0 block,
// and /metrics exports the shard_* families with a single shard="0"
// series — so the router's merges read a backend as one shard.
//
// A scorer swap (SetScorer, Reload) publishes a new state and
// invalidates the cache; a state with no trained scorer answers from
// the popularity fallback with degraded=true instead of failing.
package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve/api"
)

// DefaultCacheSize is the score-vector cache capacity when
// Config.CacheSize is unset.
const DefaultCacheSize = 4096

// explain limits, identical to the historical handler constants.
const (
	explainMaxPaths = 5
	explainDepth    = 4
	explainPerPair  = 2
)

// shardLabel is the one value of the shard label on the shard_*
// metric families: the process serves a single state, shard 0.
const shardLabel = "0"

// scorerState is the atomically-swapped serving state. ann is the
// approximate index built from (and only ever consulted alongside)
// this exact scorer; nil while absent, still building, or discarded as
// recall-suspect — ann-mode requests then fall back to exhaustive
// scoring.
type scorerState struct {
	scorer   eval.Scorer
	degraded bool
	ann      *annState
}

// Config assembles a Dispatcher.
type Config struct {
	CacheSize int // cached score vectors; <=0 means DefaultCacheSize

	Dataset  *dataset.Dataset
	CSR      *graph.CSR
	Fallback *eval.PopularityScorer
	Scorer   eval.Scorer // initial scorer; nil boots degraded

	// ANN configures the approximate index. When enabled and the
	// initial scorer exposes embedding vectors, New builds the index
	// synchronously — the snapshot-load freeze — while scorer swaps
	// rebuild asynchronously behind a CAS attach.
	ANN ANNConfig
}

// Dispatcher routes /v1 work onto the process's serving state.
type Dispatcher struct {
	d *dataset.Dataset
	// csr is the published frozen graph. Live ingestion swaps it via
	// SetGraph when the overlay compacts; readers pin one load per
	// request so a swap mid-request is coherent.
	csr      atomic.Pointer[graph.CSR]
	graphGen atomic.Uint64
	fallback *eval.PopularityScorer
	sem      chan struct{} // bounded pool for batch and probe fan-out

	cur     atomic.Pointer[scorerState]
	cache   *ScoreCache
	pathers sync.Pool

	inflight atomic.Int64
	requests atomic.Uint64

	// scoreBufs recycles the per-request NumItems-wide scratch
	// (ranking masks train items in place, so it cannot rank straight
	// off a shared cached vector).
	scoreBufs sync.Pool

	annCfg ANNConfig

	// Registered mirrors; nil until Register, which must be called
	// before traffic starts.
	inflightG    *obs.Gauge
	degradedG    *obs.Gauge
	requestsC    *obs.Counter
	annBuildG    *obs.Gauge
	annLevelsG   *obs.Gauge
	fanout       *obs.Histogram
	rankLatency  *obs.HistogramVec // per-mode ranking latency
	annFallbacks *obs.Counter
}

// countANNFallback bumps the ann_fallback_total counter when an ann
// request was answered exhaustively.
func (dp *Dispatcher) countANNFallback() {
	if dp.annFallbacks != nil {
		dp.annFallbacks.Inc()
	}
}

// observeRank records one ranking request's latency under its mode.
func (dp *Dispatcher) observeRank(mode string, start time.Time) {
	if dp.rankLatency != nil {
		dp.rankLatency.With(mode).Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	}
}

// New builds a Dispatcher. Panics on a nil dataset, CSR, or fallback —
// those are construction bugs, not runtime conditions.
func New(cfg Config) *Dispatcher {
	if cfg.Dataset == nil || cfg.CSR == nil || cfg.Fallback == nil {
		panic("shard.New: Dataset, CSR, and Fallback are required")
	}
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}

	dp := &Dispatcher{
		d:        cfg.Dataset,
		fallback: cfg.Fallback,
		sem:      make(chan struct{}, runtime.GOMAXPROCS(0)),
		annCfg:   cfg.ANN,
	}
	dp.csr.Store(cfg.CSR)
	dp.scoreBufs = sync.Pool{New: func() any { return make([]float64, cfg.Dataset.NumItems) }}
	dp.cache = NewScoreCache(cacheSize, cfg.Dataset.NumItems, func(ctx context.Context, user int, out []float64) {
		_, sp := obs.StartSpan(ctx, "scorer.score")
		sp.SetAttrInt("user", user)
		dp.state().scorer.ScoreItems(user, out)
		sp.End()
	})
	dp.pathers = sync.Pool{New: func() any {
		c := dp.csr.Load()
		return &pather{csr: c, pf: c.PathFinder()}
	}}
	if cfg.Scorer == nil {
		dp.cur.Store(&scorerState{scorer: dp.fallback, degraded: true})
	} else {
		dp.cur.Store(&scorerState{scorer: cfg.Scorer})
	}

	// Snapshot-load freeze: the initial index builds synchronously, so
	// a dispatcher constructed from a snapshot serves ann from its
	// first request — only later hot swaps rebuild in the background.
	if cfg.ANN.Enabled && cfg.Scorer != nil {
		dp.attachANN(dp.state(), buildANN(cfg.Scorer, dp.annCfg))
	}
	return dp
}

func (dp *Dispatcher) state() *scorerState { return dp.cur.Load() }

// setState swaps the scorer, invalidates the cache (the generation
// counter discards racing fills), and syncs the degraded gauge. The
// swap always publishes with a nil index — a rebuild (spawnANNBuild)
// CAS-attaches one later, so a stale index can never serve against a
// new scorer. Returns the stored state so the rebuild can anchor its
// CAS.
func (dp *Dispatcher) setState(sc eval.Scorer) *scorerState {
	st := &scorerState{scorer: sc}
	if sc == nil {
		st = &scorerState{scorer: dp.fallback, degraded: true}
	}
	dp.cur.Store(st)
	// Invalidate AFTER the swap: fills that start after the invalidate
	// observe the new scorer through the atomic pointer.
	dp.cache.Invalidate()
	if dp.degradedG != nil {
		if st.degraded {
			dp.degradedG.Set(1)
		} else {
			dp.degradedG.Set(0)
		}
	}
	return st
}

// begin/end bracket one routed request.
func (dp *Dispatcher) begin() {
	dp.inflight.Add(1)
	dp.requests.Add(1)
	if dp.inflightG != nil {
		dp.inflightG.Inc()
	}
	if dp.requestsC != nil {
		dp.requestsC.Inc()
	}
}

func (dp *Dispatcher) end() {
	dp.inflight.Add(-1)
	if dp.inflightG != nil {
		dp.inflightG.Dec()
	}
}

// pather pins a pooled PathFinder to the CSR it walks, so a graph
// swap invalidates stale finders naturally on their next checkout.
type pather struct {
	csr *graph.CSR
	pf  *graph.PathFinder
}

// SetGraph publishes a new frozen CSR (an overlay compaction). It
// rides the same visibility machinery a scorer swap uses: one atomic
// store, a generation bump, and a cache invalidation, so racing fills
// against the old graph are discarded. Pooled path finders pinned to
// the old CSR are replaced lazily as Explain checks them out. The
// popularity fallback keeps its construction-time graph — an accepted
// staleness, since it only serves degraded answers over base items.
func (dp *Dispatcher) SetGraph(c *graph.CSR) {
	if c == nil {
		return
	}
	dp.csr.Store(c)
	dp.graphGen.Add(1)
	dp.cache.Invalidate()
}

// Graph returns the currently published frozen CSR.
func (dp *Dispatcher) Graph() *graph.CSR { return dp.csr.Load() }

// GraphGeneration counts SetGraph publications since construction.
func (dp *Dispatcher) GraphGeneration() uint64 { return dp.graphGen.Load() }

// Degraded reports whether the dispatcher is serving the popularity
// fallback.
func (dp *Dispatcher) Degraded() bool { return dp.state().degraded }

// SetScorer swaps the scorer to sc (nil degrades to the popularity
// fallback), invalidating the cache. With ANN enabled the index
// rebuilds for the new scorer; requests served in the window answer
// exhaustively with ranking.fallback=true.
func (dp *Dispatcher) SetScorer(sc eval.Scorer) {
	st := dp.setState(sc)
	if sc != nil {
		dp.spawnANNBuild(st)
	}
}

// Invalidate drops the cached score vectors.
func (dp *Dispatcher) Invalidate() { dp.cache.Invalidate() }

// CacheStats reports the score cache's hit/miss/entry accounting.
func (dp *Dispatcher) CacheStats() (hits, misses uint64, entries int) { return dp.cache.Stats() }

// Stats renders the serving state's /v1/stats shard block (shard 0).
func (dp *Dispatcher) Stats() api.ShardStats {
	h, m, e := dp.cache.Stats()
	var rate float64
	if h+m > 0 {
		rate = float64(h) / float64(h+m)
	}
	return api.ShardStats{
		Degraded: dp.state().degraded,
		Inflight: dp.inflight.Load(),
		Requests: dp.requests.Load(),
		Cache: api.CacheStats{
			Hits: h, Misses: m, HitRate: rate,
			Entries: e, Cap: dp.cache.Cap(),
		},
	}
}

// Register installs the shard_* instrument families on reg — the
// constant shard count, the inflight/degraded/request/cache series
// under the single shard="0" label, and the fan-out latency histogram
// — plus the graph and ann gauges. Must be called before serving
// starts.
func (dp *Dispatcher) Register(reg *obs.Registry) {
	reg.NewGaugeFunc("shard_count",
		"Scorer shards behind the dispatcher.",
		func() float64 { return 1 })
	dp.inflightG = reg.NewGaugeVec("shard_inflight_requests",
		"Requests currently routed into each shard.", "shard").With(shardLabel)
	dp.degradedG = reg.NewGaugeVec("shard_degraded",
		"1 when the shard serves the popularity fallback, 0 with a trained scorer.", "shard").With(shardLabel)
	if dp.state().degraded {
		dp.degradedG.Set(1)
	}
	dp.requestsC = reg.NewCounterVec("shard_requests_total",
		"Requests and fan-out tasks routed to each shard.", "shard").With(shardLabel)
	hits := reg.NewCounterVec("shard_cache_hits_total",
		"Per-shard score-vector cache hits.", "shard")
	misses := reg.NewCounterVec("shard_cache_misses_total",
		"Per-shard score-vector cache misses.", "shard")
	dp.cache.CountInto(hits.With(shardLabel), misses.With(shardLabel))
	dp.fanout = reg.NewHistogram("shard_fanout_duration_ms",
		"Cross-shard fan-out latency (recommend:batch, similar probes) in milliseconds.", nil)
	reg.NewGaugeFunc("graph_generation",
		"Frozen-CSR swaps published to the shards (overlay compactions).",
		func() float64 { return float64(dp.graphGen.Load()) })
	reg.NewGaugeFunc("graph_edges",
		"Directed edges in the published frozen CSR (inverses included).",
		func() float64 { return float64(dp.csr.Load().NumEdges()) })
	reg.NewGaugeFunc("graph_entities",
		"Entities in the published frozen CSR.",
		func() float64 { return float64(dp.csr.Load().NumEntities()) })
	reg.NewGaugeFunc("ann_enabled",
		"1 when every shard holds a live approximate index.",
		func() float64 {
			if dp.ANNStats().Enabled {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("ann_ef_search",
		"Configured default ann search breadth.",
		func() float64 { return float64(dp.ANNStats().EfSearch) })
	dp.annBuildG = reg.NewGaugeVec("ann_build_duration_ms",
		"Wall time of the shard's last successful index build.", "shard").With(shardLabel)
	dp.annLevelsG = reg.NewGaugeVec("ann_levels",
		"Layer count of the shard's item index.", "shard").With(shardLabel)
	if a := dp.state().ann; a != nil {
		dp.annBuildG.Set(float64(a.buildDur.Nanoseconds()) / 1e6)
		dp.annLevelsG.Set(float64(a.items.Levels()))
	}
	dp.annFallbacks = reg.NewCounter("ann_fallback_total",
		"ann-mode requests answered exhaustively (index absent, building, or recall-suspect).")
	dp.rankLatency = reg.NewHistogramVec("shard_rank_duration_ms",
		"Ranking latency by scoring mode (exact/ann) in milliseconds.", nil, "mode")
}

// Ranked is a ranking slice: Items[i] is the i-th best item and
// Scores[i] its raw model score, ordered by score descending with ties
// broken toward the smaller item ID.
type Ranked struct {
	Items  []int
	Scores []float64
}

// rankedFrom extracts the aligned top-k view of a full score vector.
func rankedFrom(scores []float64, k int) Ranked {
	top := eval.TopK(scores, k)
	r := Ranked{Items: top, Scores: make([]float64, len(top))}
	for i, it := range top {
		r.Scores[i] = scores[it]
	}
	return r
}

// recommendOn computes user's masked top-k from the cached score
// vector, copying before the in-place mask. The query's item window
// (the facility filter) masks alongside the train set.
func (dp *Dispatcher) recommendOn(ctx context.Context, user, k int, q Query) Ranked {
	cached := dp.cache.Scores(ctx, user)
	buf := dp.scoreBufs.Get().([]float64)[:len(cached)]
	copy(buf, cached)
	eval.MaskTrain(dp.d, user, buf)
	q.maskItems(buf)
	r := rankedFrom(buf, k)
	dp.scoreBufs.Put(buf)
	return r
}

// fallbackRank answers from the popularity prior, bypassing the cache
// and scorer entirely: the degraded answer when the model path misses
// its deadline. The item window still applies, so even degraded
// answers respect the facility filter.
func (dp *Dispatcher) fallbackRank(user, k int, q Query) Ranked {
	buf := dp.scoreBufs.Get().([]float64)[:dp.d.NumItems]
	dp.fallback.ScoreItems(user, buf)
	eval.MaskTrain(dp.d, user, buf)
	q.maskItems(buf)
	r := rankedFrom(buf, k)
	dp.scoreBufs.Put(buf)
	return r
}

// recommendWith runs one user's ranking under the requested mode: the
// index when mode=ann and a live index exists, exhaustive scoring
// otherwise (with info.Fallback set on an unsatisfied ann request).
func (dp *Dispatcher) recommendWith(ctx context.Context, user, k int, q Query) (Ranked, RankInfo) {
	if q.Mode == api.ModeANN {
		if a := dp.state().ann; a != nil {
			ef := a.resolveEF(q.EF, k)
			return dp.annRecommendOn(a, user, k, ef, q), RankInfo{Mode: api.ModeANN, EF: ef}
		}
		dp.countANNFallback()
		return dp.recommendOn(ctx, user, k, q), RankInfo{Mode: api.ModeExact, Fallback: true}
	}
	return dp.recommendOn(ctx, user, k, q), RankInfo{Mode: api.ModeExact}
}

// Recommend answers one user's top-k. degraded reports whether the
// answer came from the popularity fallback — either because no trained
// scorer is loaded or because the model path blew the deadline.
func (dp *Dispatcher) Recommend(ctx context.Context, user, k int, q Query) (Ranked, RankInfo, bool) {
	dp.begin()
	defer dp.end()
	start := time.Now()
	degraded := dp.state().degraded
	r, info := dp.recommendWith(ctx, user, k, q)
	if !degraded && ctx.Err() != nil {
		// The model path blew the deadline; answer from the popularity
		// prior rather than failing a recommendation request.
		r, degraded = dp.fallbackRank(user, k, q), true
		info = RankInfo{Mode: api.ModeExact, Fallback: q.Mode == api.ModeANN}
	}
	dp.observeRank(info.Mode, start)
	return r, info, degraded
}

// RecommendBatch ranks every user of the batch on the bounded pool
// under the same Query and returns the rankings in request order.
// degraded[i] reports per-user fallback answers. If the deadline trips
// mid-batch every user is answered from the popularity prior so the
// response is uniform. The batch-wide RankInfo sets Fallback when any
// user was answered exhaustively against an ann request.
func (dp *Dispatcher) RecommendBatch(ctx context.Context, users []int, k int, q Query) ([]Ranked, []bool, RankInfo) {
	start := time.Now()
	results := make([]Ranked, len(users))
	degraded := make([]bool, len(users))
	infos := make([]RankInfo, len(users))
	err := dp.runBounded(ctx, len(users), func(i int) {
		dp.begin()
		defer dp.end()
		degraded[i] = dp.state().degraded
		results[i], infos[i] = dp.recommendWith(ctx, users[i], k, q)
	})
	info := RankInfo{Mode: api.ModeExact}
	if q.Mode == api.ModeANN {
		info.Mode = api.ModeANN
		for _, in := range infos {
			if in.EF > info.EF {
				info.EF = in.EF
			}
			if in.Fallback {
				info.Fallback = true
			}
		}
		if info.EF == 0 {
			// Every user fell back; the batch ran exhaustively.
			info = RankInfo{Mode: api.ModeExact, Fallback: true}
		}
	}
	if err != nil {
		for i, u := range users {
			results[i] = dp.fallbackRank(u, k, q)
			degraded[i] = true
		}
		info = RankInfo{Mode: api.ModeExact, Fallback: q.Mode == api.ModeANN}
	}
	if dp.fanout != nil {
		dp.fanout.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	}
	dp.observeRank(info.Mode, start)
	return results, degraded, info
}

// Similar aggregates the probe users' score vectors — each fetched
// from the cache on the bounded pool — and ranks items by the summed
// co-score, excluding the target item. degraded reports whether the
// state serving the request is the popularity fallback. scale is the
// factor the caller applies to scores when rendering (1/len(probes)).
func (dp *Dispatcher) Similar(ctx context.Context, item, k int, probes []int, q Query) (r Ranked, scale float64, info RankInfo, degraded bool, err error) {
	dp.begin()
	defer dp.end()
	start := time.Now()
	st := dp.state()

	// ann path: Σ_p(e_p·e_i) = (Σ_p e_p)·e_i, so the probe fan-out
	// collapses to one index search with the summed probe vector. The
	// aggregation is mathematically identical to the exact path; only
	// float summation order differs.
	if q.Mode == api.ModeANN {
		if a := st.ann; a != nil {
			qv := make([]float64, a.vs.Dim())
			for _, p := range probes {
				uv := a.vs.UserVector(p)
				for j := range qv {
					qv[j] += uv[j]
				}
			}
			ef := a.resolveEF(q.EF, k)
			items, scores := a.items.Search(qv, k, ef, func(id int) bool { return id != item && q.acceptItem(id) })
			info = RankInfo{Mode: api.ModeANN, EF: ef}
			dp.observeRank(info.Mode, start)
			return Ranked{Items: items, Scores: scores}, 1 / float64(len(probes)), info, st.degraded, nil
		}
		dp.countANNFallback()
		info.Fallback = true
	}
	info.Mode = api.ModeExact
	defer func() { dp.observeRank(info.Mode, start) }()

	vecs := make([][]float64, len(probes))
	err = dp.runBounded(ctx, len(probes), func(i int) {
		vecs[i] = dp.cache.Scores(ctx, probes[i])
	})
	if dp.fanout != nil {
		dp.fanout.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	}
	if err != nil {
		return Ranked{}, 0, info, false, err
	}

	agg := dp.scoreBufs.Get().([]float64)[:dp.d.NumItems]
	for i := range agg {
		agg[i] = 0
	}
	for _, v := range vecs {
		for i, sc := range v {
			agg[i] += sc
		}
	}
	q.maskItems(agg)
	agg[item] = math.Inf(-1)
	r = rankedFrom(agg, k)
	dp.scoreBufs.Put(agg)
	return r, 1 / float64(len(probes)), info, st.degraded, nil
}

// Nearest answers /v1/query:nearest: the k entities closest to ref in
// embedding space under inner product, excluding ref itself. typ
// filters results to one kind ("" defaults to the anchor's kind; "any"
// returns both). ErrNoEmbeddings when the scorer has no embedding
// geometry.
func (dp *Dispatcher) Nearest(ctx context.Context, ref api.EntityRef, k int, typ string, q Query) ([]Neighbor, RankInfo, bool, error) {
	dp.begin()
	defer dp.end()
	start := time.Now()
	st := dp.state()
	vs, ok := st.scorer.(eval.VectorScorer)
	if !ok {
		return nil, RankInfo{}, st.degraded, ErrNoEmbeddings
	}
	if typ == "" {
		typ = ref.Kind
	}
	skip := func(kind string, id int) bool { return kind == ref.Kind && id == ref.ID }
	out, info, degraded, err := dp.semanticSearch(st, vectorOf(vs, ref), k, typ, q, skip)
	dp.observeRank(info.Mode, start)
	return out, info, degraded, err
}

// Analogy answers /v1/query:analogy: entities nearest to the analogy
// point e_a − e_b + e_c (Tran & Takasu's semantic query), excluding the
// three anchors. typ defaults to a's kind.
func (dp *Dispatcher) Analogy(ctx context.Context, a, b, c api.EntityRef, k int, typ string, q Query) ([]Neighbor, RankInfo, bool, error) {
	dp.begin()
	defer dp.end()
	start := time.Now()
	st := dp.state()
	vs, ok := st.scorer.(eval.VectorScorer)
	if !ok {
		return nil, RankInfo{}, st.degraded, ErrNoEmbeddings
	}
	if typ == "" {
		typ = a.Kind
	}
	va, vb, vc := vectorOf(vs, a), vectorOf(vs, b), vectorOf(vs, c)
	qv := make([]float64, vs.Dim())
	for j := range qv {
		qv[j] = va[j] - vb[j] + vc[j]
	}
	anchors := []api.EntityRef{a, b, c}
	skip := func(kind string, id int) bool {
		for _, ref := range anchors {
			if kind == ref.Kind && id == ref.ID {
				return true
			}
		}
		return false
	}
	out, info, degraded, err := dp.semanticSearch(st, qv, k, typ, q, skip)
	dp.observeRank(info.Mode, start)
	return out, info, degraded, err
}

// Explain walks the frozen CSR for knowledge paths from the user's
// training history to the target item, using a pooled PathFinder.
// degraded mirrors the serving state's flag so the response envelope
// matches the ranking endpoints. err is the context error when the
// deadline expired mid-walk.
func (dp *Dispatcher) Explain(ctx context.Context, user, item int) (out []api.ExplainPath, degraded bool, err error) {
	dp.begin()
	defer dp.end()
	degraded = dp.state().degraded

	dst := dp.d.ItemEnt[item]
	cur := dp.csr.Load()
	p := dp.pathers.Get().(*pather)
	if p.csr != cur {
		// The graph was swapped since this finder was pooled; rebuild
		// against the published CSR.
		p = &pather{csr: cur, pf: cur.PathFinder()}
	}
	finder := p.pf
	defer dp.pathers.Put(p)
	_, sp := obs.StartSpan(ctx, "explain.paths")
	sp.SetAttrInt("user", user)
	sp.SetAttrInt("item", item)
	for _, hist := range dp.d.TrainByUser[user] {
		if len(out) >= explainMaxPaths || ctx.Err() != nil {
			break
		}
		src := dp.d.ItemEnt[hist]
		for _, p := range finder.FindPaths(src, dst, explainDepth, explainPerPair) {
			out = append(out, api.ExplainPath{
				From: dp.d.Trace.Facility.Items[hist].Name,
				Path: dp.d.Graph.FormatSteps(p),
			})
			if len(out) >= explainMaxPaths {
				break
			}
		}
	}
	sp.SetAttrInt("paths", len(out))
	sp.End()
	return out, degraded, ctx.Err()
}

// Reload swaps in a freshly loaded scorer, retrying the loader up to
// attempts times with exponential backoff starting at backoff, and
// reports the outcome as the shard 0 reload block. When every load
// fails the previous state — trained or degraded — keeps serving and
// the error names shard 0, matching the block in the /v1/admin/reload
// failure envelope.
func (dp *Dispatcher) Reload(loader func() (eval.Scorer, error), attempts int, backoff time.Duration) (api.ShardReload, error) {
	if attempts < 1 {
		attempts = 1
	}
	var sc eval.Scorer
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if sc, err = loader(); err == nil {
			break
		}
	}
	if err != nil {
		return api.ShardReload{Status: "failed", Degraded: dp.state().degraded, Error: err.Error()},
			fmt.Errorf("shard 0: %w", err)
	}
	dp.SetScorer(sc)
	return api.ShardReload{Status: "reloaded"}, nil
}

// runBounded executes fn(0..n-1) across the dispatcher's bounded pool,
// blocking until all launched tasks finish. The bound is global across
// requests, so a burst of batch calls cannot oversubscribe the
// machine. If ctx expires while tasks are still waiting for a slot,
// the remaining tasks are skipped and ctx.Err is returned after the
// launched ones drain.
func (dp *Dispatcher) runBounded(ctx context.Context, n int, fn func(i int)) error {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case dp.sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return ctx.Err()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-dp.sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
	return ctx.Err()
}
