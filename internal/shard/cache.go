package shard

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obs"
)

// ScoreCache is an LRU cache of per-user score vectors, owned by the
// dispatcher's serving state. Trained embeddings are fixed at serving
// time, so a user's full-catalog score vector is immutable between
// retrains — exactly the property that makes it cacheable. Cached
// slices are shared across requests and must be treated as read-only;
// callers that need to mutate (e.g. to mask training positives) copy
// first.
type ScoreCache struct {
	mu     sync.Mutex
	cap    int
	dim    int
	ll     *list.List            // front = most recently used
	byUser map[int]*list.Element // user -> entry
	score  func(ctx context.Context, user int, out []float64)

	// gen is bumped by Invalidate. A fill that started under an older
	// generation is discarded instead of inserted, so a vector computed
	// against a scorer that was hot-swapped away mid-fill can never
	// poison the cache for later requests.
	gen uint64

	hits, misses uint64

	// Optional Prometheus mirrors, incremented alongside the internal
	// counters once the owning dispatcher registers its metrics.
	hitC, missC *obs.Counter
}

type cacheEntry struct {
	user   int
	scores []float64
}

// NewScoreCache builds a cache of per-user vectors of length dim,
// filling misses through score.
func NewScoreCache(capacity, dim int, score func(context.Context, int, []float64)) *ScoreCache {
	return &ScoreCache{
		cap:    capacity,
		dim:    dim,
		ll:     list.New(),
		byUser: make(map[int]*list.Element, capacity),
		score:  score,
	}
}

// CountInto mirrors hit/miss increments into registered counters
// (shard_cache_{hits,misses}_total{shard}) in addition to the internal
// lifetime counts read by Stats.
func (c *ScoreCache) CountInto(hits, misses *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hitC, c.missC = hits, misses
}

// Scores returns the score vector for user, computing and inserting it
// on a miss. The returned slice is shared: callers must not write to
// it. Scoring happens outside the lock so concurrent misses for
// different users proceed in parallel; a duplicated computation for
// the same user is benign (identical values, last insert wins). A miss
// is traced as a cache.fill span under the request's trace in ctx.
func (c *ScoreCache) Scores(ctx context.Context, user int) []float64 {
	c.mu.Lock()
	if el, ok := c.byUser[user]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		hitC := c.hitC
		v := el.Value.(*cacheEntry).scores
		c.mu.Unlock()
		if hitC != nil {
			hitC.Inc()
		}
		return v
	}
	c.misses++
	missC := c.missC
	gen := c.gen
	c.mu.Unlock()
	if missC != nil {
		missC.Inc()
	}

	fillCtx, sp := obs.StartSpan(ctx, "cache.fill")
	sp.SetAttrInt("user", user)
	out := make([]float64, c.dim)
	c.score(fillCtx, user, out)
	sp.End()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		// The cache was invalidated (model hot swap) while scoring.
		// Serve this request its computed vector but do not insert it:
		// it may predate the swap.
		return out
	}
	if el, ok := c.byUser[user]; ok {
		// Another goroutine filled it while we scored.
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).scores
	}
	c.byUser[user] = c.ll.PushFront(&cacheEntry{user: user, scores: out})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byUser, back.Value.(*cacheEntry).user)
	}
	return out
}

// Invalidate drops every entry and advances the generation so inflight
// fills started before the call cannot re-insert pre-swap vectors.
// Hit/miss counters survive so the stats endpoint keeps lifetime
// accounting across retrains.
func (c *ScoreCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.ll.Init()
	c.byUser = make(map[int]*list.Element, c.cap)
}

// Stats returns lifetime hit/miss counts and the current entry count.
func (c *ScoreCache) Stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// Cap returns the cache's configured capacity.
func (c *ScoreCache) Cap() int { return c.cap }
