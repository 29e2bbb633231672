package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeScoreFn fills deterministic values and counts invocations.
func fakeScoreFn(calls *atomic.Int64, dim int) func(context.Context, int, []float64) {
	return func(_ context.Context, user int, out []float64) {
		calls.Add(1)
		for i := range out {
			out[i] = float64(user*dim + i)
		}
	}
}

func TestScoreCacheHitMissAccounting(t *testing.T) {
	var calls atomic.Int64
	c := NewScoreCache(8, 4, fakeScoreFn(&calls, 4))

	v := c.Scores(context.Background(), 3)
	if v[1] != 13 {
		t.Fatalf("scores wrong: %v", v)
	}
	c.Scores(context.Background(), 3)
	c.Scores(context.Background(), 3)
	c.Scores(context.Background(), 5)
	hits, misses, entries := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", hits, misses)
	}
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if calls.Load() != 2 {
		t.Fatalf("score fn called %d times, want 2", calls.Load())
	}
}

func TestScoreCacheLRUEviction(t *testing.T) {
	var calls atomic.Int64
	c := NewScoreCache(2, 2, fakeScoreFn(&calls, 2))
	c.Scores(context.Background(), 0) // miss
	c.Scores(context.Background(), 1) // miss
	c.Scores(context.Background(), 0) // hit, moves 0 to front
	c.Scores(context.Background(), 2) // miss, evicts 1 (LRU)
	c.Scores(context.Background(), 0) // hit: still resident
	c.Scores(context.Background(), 1) // miss: was evicted
	hits, misses, entries := c.Stats()
	if hits != 2 || misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 2/4", hits, misses)
	}
	if entries != 2 {
		t.Fatalf("entries = %d, want cap 2", entries)
	}
}

func TestScoreCacheInvalidate(t *testing.T) {
	var calls atomic.Int64
	c := NewScoreCache(8, 2, fakeScoreFn(&calls, 2))
	c.Scores(context.Background(), 1)
	c.Invalidate()
	if _, _, entries := c.Stats(); entries != 0 {
		t.Fatalf("entries after invalidate = %d", entries)
	}
	c.Scores(context.Background(), 1)
	if calls.Load() != 2 {
		t.Fatalf("invalidate did not force a re-score (calls=%d)", calls.Load())
	}
}

// TestScoreCacheConcurrent hammers one cache from many goroutines
// under -race: accounting must stay consistent and every returned
// vector must hold the right user's scores.
func TestScoreCacheConcurrent(t *testing.T) {
	var calls atomic.Int64
	c := NewScoreCache(16, 8, fakeScoreFn(&calls, 8))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := (g + i) % 24
				v := c.Scores(context.Background(), u)
				if v[0] != float64(u*8) {
					t.Errorf("user %d got vector starting %v", u, v[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	if hits+misses != 16*200 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 16*200)
	}
}
