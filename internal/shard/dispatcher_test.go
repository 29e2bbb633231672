package shard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/obs"
	"repro/internal/trace"
)

// One dataset is shared across the package's tests (building it
// dominates test time); every test gets its own Dispatcher.
var testDataOnce struct {
	sync.Once
	d *dataset.Dataset
}

func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	testDataOnce.Do(func() {
		cat := facility.OOI(7)
		cfg := trace.DefaultOOIConfig()
		cfg.NumUsers = 60
		cfg.NumOrgs = 8
		cfg.MeanQueries = 20
		tr := trace.Generate(cat, cfg, 3)
		testDataOnce.d = dataset.Build(tr, dataset.AllSources(), 3)
	})
	return testDataOnce.d
}

// fakeScorer produces deterministic user-dependent scores with many
// exact ties, so ranking equality with the direct path also proves the
// score-then-lower-ID tiebreak survives the dispatch path.
type fakeScorer struct{ n int }

func (f *fakeScorer) ScoreItems(user int, out []float64) {
	for i := range out {
		out[i] = float64((user*31 + i*17) % 23)
	}
}

func (f *fakeScorer) NumItems() int { return f.n }

func testDispatcher(t testing.TB, sc eval.Scorer) (*Dispatcher, *dataset.Dataset) {
	t.Helper()
	d := testData(t)
	csr := d.CSR()
	return New(Config{
		Dataset:  d,
		CSR:      csr,
		Fallback: eval.Popularity(d, csr),
		Scorer:   sc,
	}), d
}

func rankedEqual(a, b Ranked) bool {
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] || a.Scores[i] != b.Scores[i] {
			return false
		}
	}
	return true
}

// The dispatcher must be bit-identical to the direct eval path: score,
// mask training positives, TopK — for single and batch requests.
func TestDispatcherSingleShardMatchesDirect(t *testing.T) {
	d := testData(t)
	sc := &fakeScorer{n: d.NumItems}
	dp, _ := testDispatcher(t, sc)
	ctx := context.Background()
	for u := 0; u < d.NumUsers; u++ {
		got, _, degraded := dp.Recommend(ctx, u, 10, Query{})
		if degraded {
			t.Fatalf("user %d: degraded with a healthy scorer", u)
		}
		scores := make([]float64, d.NumItems)
		sc.ScoreItems(u, scores)
		eval.MaskTrain(d, u, scores)
		want := rankedFrom(scores, 10)
		if !rankedEqual(got, want) {
			t.Fatalf("user %d: dispatcher %v != direct %v", u, got, want)
		}
	}
	users := make([]int, d.NumUsers)
	for u := range users {
		users[u] = u
	}
	batch, perUser, _ := dp.RecommendBatch(ctx, users, 10, Query{})
	for u := range users {
		single, _, _ := dp.Recommend(ctx, u, 10, Query{})
		if perUser[u] || !rankedEqual(batch[u], single) {
			t.Fatalf("user %d: batch %v (degraded=%v) != single %v", u, batch[u], perUser[u], single)
		}
	}
}

// testFallbackRanked computes every user's popularity-fallback ranking
// through the same mask/TopK path the dispatcher uses.
func testFallbackRanked(d *dataset.Dataset, k int) []Ranked {
	csr := d.CSR()
	fb := eval.Popularity(d, csr)
	out := make([]Ranked, d.NumUsers)
	for u := range out {
		scores := make([]float64, d.NumItems)
		fb.ScoreItems(u, scores)
		eval.MaskTrain(d, u, scores)
		out[u] = rankedFrom(scores, k)
	}
	return out
}

// Reload retries the loader with backoff and reports the outcome as
// the shard 0 block. A reload whose loads all fail keeps the previous
// state serving — degraded at boot, trained once healed.
func TestReloadPerShardReporting(t *testing.T) {
	d := testData(t)
	dp, _ := testDispatcher(t, nil) // boots degraded
	if !dp.Degraded() {
		t.Fatal("nil scorer did not boot degraded")
	}
	ctx := context.Background()
	fallbackRef := testFallbackRanked(d, 10)
	for u := 0; u < d.NumUsers; u++ {
		got, _, degraded := dp.Recommend(ctx, u, 10, Query{})
		if !degraded || !rankedEqual(got, fallbackRef[u]) {
			t.Fatalf("user %d: degraded=%v answer %v != popularity fallback %v", u, degraded, got, fallbackRef[u])
		}
	}

	// Loader: fails the first attempts calls, succeeds after.
	const attempts = 2
	calls := 0
	loader := func() (eval.Scorer, error) {
		calls++
		if calls <= attempts {
			return nil, errors.New("snapshot still syncing")
		}
		return &fakeScorer{n: d.NumItems}, nil
	}
	report, err := dp.Reload(loader, attempts, time.Millisecond)
	if err == nil || !strings.HasPrefix(err.Error(), "shard 0: ") {
		t.Fatalf("failed reload error = %v, want one naming shard 0", err)
	}
	if calls != attempts {
		t.Fatalf("loader called %d times, want %d (one per attempt)", calls, attempts)
	}
	if report.Shard != 0 || report.Status != "failed" || report.Error == "" || !report.Degraded {
		t.Fatalf("failed report = %+v, want shard 0 failed+degraded with error", report)
	}
	if !dp.Degraded() {
		t.Fatal("a failed reload changed the degraded state")
	}

	// The next reload succeeds and heals.
	report, err = dp.Reload(loader, attempts, time.Millisecond)
	if err != nil || report.Status != "reloaded" || report.Degraded {
		t.Fatalf("healing reload: report %+v err %v", report, err)
	}
	if dp.Degraded() {
		t.Fatal("still degraded after a successful reload")
	}
	trained, _, _ := dp.Recommend(ctx, 3, 10, Query{})

	// A failing reload now keeps the trained scorer serving.
	calls = 0
	if _, err := dp.Reload(loader, attempts, time.Millisecond); err == nil {
		t.Fatal("failing reload reported no error")
	}
	if got, _, degraded := dp.Recommend(ctx, 3, 10, Query{}); degraded || !rankedEqual(got, trained) {
		t.Fatalf("failed reload disturbed the trained state: degraded=%v %v != %v", degraded, got, trained)
	}
}

// Register must mint the shard_* families with the single shard="0"
// series.
func TestRegisterShardMetrics(t *testing.T) {
	d := testData(t)
	dp, _ := testDispatcher(t, &fakeScorer{n: d.NumItems})
	reg := obs.NewRegistry()
	dp.Register(reg)
	dp.Recommend(context.Background(), 0, 5, Query{})

	var buf strings.Builder
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"shard_count 1",
		`shard_requests_total{shard="0"} 1`,
		`shard_degraded{shard="0"} 0`,
		`shard_inflight_requests{shard="0"} 0`,
		`shard_cache_misses_total{shard="0"} 1`,
		"shard_fanout_duration_ms",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, `shard="1"`) {
		t.Fatalf("metrics exposition carries a second shard series:\n%s", text)
	}
}

// BenchmarkDispatcherBatch drives recommend:batch over every test user
// through the dispatcher with warm caches (the payload
// scripts/bench_shard.sh records).
func BenchmarkDispatcherBatch(b *testing.B) {
	d := testData(b)
	dp, _ := testDispatcher(b, &fakeScorer{n: d.NumItems})
	users := make([]int, d.NumUsers)
	for u := range users {
		users[u] = u
	}
	ctx := context.Background()
	dp.RecommendBatch(ctx, users, 10, Query{}) // warm caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.RecommendBatch(ctx, users, 10, Query{})
	}
}
