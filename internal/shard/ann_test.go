package shard

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/serve/api"
)

// vecScorer is a deterministic eval.VectorScorer: Gaussian user/item
// embeddings whose ScoreItems accumulates the dot product in ascending
// coordinate order — the same kernel order the ANN index uses, so
// exact and approximate scores are bit-identical.
type vecScorer struct {
	users, items, dim int
	uv, iv            []float64
}

func newVecScorer(users, items, dim int, seed int64) *vecScorer {
	g := rng.New(seed).Split("shard-ann-test")
	v := &vecScorer{users: users, items: items, dim: dim,
		uv: make([]float64, users*dim), iv: make([]float64, items*dim)}
	for i := range v.uv {
		v.uv[i] = g.NormFloat64()
	}
	for i := range v.iv {
		v.iv[i] = g.NormFloat64()
	}
	return v
}

func (v *vecScorer) ScoreItems(user int, out []float64) {
	u := v.UserVector(user)
	for i := 0; i < v.items; i++ {
		it := v.ItemVector(i)
		var s float64
		for j := range u {
			s += u[j] * it[j]
		}
		out[i] = s
	}
}

func (v *vecScorer) NumItems() int              { return v.items }
func (v *vecScorer) NumUsers() int              { return v.users }
func (v *vecScorer) Dim() int                   { return v.dim }
func (v *vecScorer) UserVector(u int) []float64 { return v.uv[u*v.dim : (u+1)*v.dim] }
func (v *vecScorer) ItemVector(i int) []float64 { return v.iv[i*v.dim : (i+1)*v.dim] }

func annDispatcher(t testing.TB, sc eval.Scorer) (*Dispatcher, int) {
	t.Helper()
	d := testData(t)
	csr := d.CSR()
	dp := New(Config{
		Dataset:  d,
		CSR:      csr,
		Fallback: eval.Popularity(d, csr),
		Scorer:   sc,
		ANN:      ANNConfig{Enabled: true, SyncBuild: true},
	})
	return dp, d.NumUsers
}

// The tentpole parity pin: ann-mode recommend against the exact
// ranking at K ∈ {10, 50, 100}, mean recall across every user ≥ 0.95
// (the acceptance floor).
func TestANNRecommendParity(t *testing.T) {
	d := testData(t)
	sc := newVecScorer(d.NumUsers, d.NumItems, 24, 5)
	ctx := context.Background()
	dp, users := annDispatcher(t, sc)
	for _, k := range []int{10, 50, 100} {
		var total float64
		for u := 0; u < users; u++ {
			exact, info, _ := dp.Recommend(ctx, u, k, Query{})
			if info.Mode != api.ModeExact || info.Fallback {
				t.Fatalf("exact request reported %+v", info)
			}
			got, info, _ := dp.Recommend(ctx, u, k, Query{Mode: api.ModeANN})
			if info.Mode != api.ModeANN || info.Fallback {
				t.Fatalf("ann request reported %+v", info)
			}
			if info.EF < k {
				t.Fatalf("effective ef %d below k %d", info.EF, k)
			}
			// ANN scores must be the exact scorer's values for the
			// items it returns.
			scores := make([]float64, d.NumItems)
			sc.ScoreItems(u, scores)
			for i, it := range got.Items {
				if got.Scores[i] != scores[it] {
					t.Fatalf("user %d item %d: ann score %v != exact %v",
						u, it, got.Scores[i], scores[it])
				}
			}
			total += eval.Overlap(exact.Items, got.Items)
		}
		if avg := total / float64(users); avg < 0.95 {
			t.Fatalf("mean recall@%d = %.3f, want >= 0.95", k, avg)
		}
	}
}

// An ann request against a scorer with no embedding geometry answers
// exhaustively — identical ranking, fallback flagged — rather than
// failing or silently degrading.
func TestANNFallbackWithoutVectors(t *testing.T) {
	d := testData(t)
	dp, _ := annDispatcher(t, &fakeScorer{n: d.NumItems})
	ctx := context.Background()
	exact, _, _ := dp.Recommend(ctx, 3, 10, Query{})
	got, info, degraded := dp.Recommend(ctx, 3, 10, Query{Mode: api.ModeANN})
	if degraded {
		t.Fatalf("healthy scorer reported degraded")
	}
	if info.Mode != api.ModeExact || !info.Fallback {
		t.Fatalf("fallback not reported: %+v", info)
	}
	if !rankedEqual(exact, got) {
		t.Fatalf("fallback ranking diverged from exact")
	}
	if dp.ANNStats().Enabled {
		t.Fatalf("stats claim a live index on a vectorless scorer")
	}
}

// Similar under ann collapses the probe fan-out into one index search
// with the summed probe vector; parity against the exact aggregation.
func TestANNSimilarParity(t *testing.T) {
	d := testData(t)
	sc := newVecScorer(d.NumUsers, d.NumItems, 24, 5)
	dp, _ := annDispatcher(t, sc)
	ctx := context.Background()
	probes := []int{1, 7, 13, 22}
	var total, n float64
	for item := 0; item < 40; item++ {
		exact, _, _, _, err := dp.Similar(ctx, item, 20, probes, Query{})
		if err != nil {
			t.Fatalf("exact similar: %v", err)
		}
		got, scale, info, _, err := dp.Similar(ctx, item, 20, probes, Query{Mode: api.ModeANN})
		if err != nil {
			t.Fatalf("ann similar: %v", err)
		}
		if info.Mode != api.ModeANN || scale != 1/float64(len(probes)) {
			t.Fatalf("ann similar info=%+v scale=%v", info, scale)
		}
		for _, it := range got.Items {
			if it == item {
				t.Fatalf("similar(%d) returned the item itself", item)
			}
		}
		total += eval.Overlap(exact.Items, got.Items)
		n++
	}
	if avg := total / n; avg < 0.95 {
		t.Fatalf("similar mean recall@20 = %.3f, want >= 0.95", avg)
	}
}

// Batch fan-out propagates the mode to every user: each user's row
// matches the single-request ann ranking, and the batch-wide info
// reports ann with no fallback.
func TestANNBatchModePropagation(t *testing.T) {
	d := testData(t)
	sc := newVecScorer(d.NumUsers, d.NumItems, 24, 5)
	dp, _ := annDispatcher(t, sc)
	ctx := context.Background()
	users := []int{0, 5, 9, 14, 23, 31, 42}
	batch, perUser, info := dp.RecommendBatch(ctx, users, 10, Query{Mode: api.ModeANN})
	if info.Mode != api.ModeANN || info.Fallback {
		t.Fatalf("batch info = %+v", info)
	}
	for i, u := range users {
		if perUser[i] {
			t.Fatalf("user %d flagged degraded", u)
		}
		single, _, _ := dp.Recommend(ctx, u, 10, Query{Mode: api.ModeANN})
		if !rankedEqual(batch[i], single) {
			t.Fatalf("user %d: batch ann ranking != single ann ranking", u)
		}
	}
}

// Hot swaps rebuild the index; at a fixed seed the rebuilt graph
// answers identically, and a swap to a vectorless scorer drops it.
func TestANNRebuildOnSwap(t *testing.T) {
	d := testData(t)
	sc := newVecScorer(d.NumUsers, d.NumItems, 24, 5)
	dp, _ := annDispatcher(t, sc)
	ctx := context.Background()
	before, info, _ := dp.Recommend(ctx, 8, 25, Query{Mode: api.ModeANN})
	if info.Fallback {
		t.Fatalf("index absent after sync construction")
	}
	// Same scorer swapped back in (SyncBuild): deterministic rebuild.
	dp.SetScorer(sc)
	if !dp.ANNStats().Enabled {
		t.Fatalf("index lost after SetScorer")
	}
	after, info, _ := dp.Recommend(ctx, 8, 25, Query{Mode: api.ModeANN})
	if info.Fallback {
		t.Fatalf("rebuild did not attach")
	}
	if !rankedEqual(before, after) {
		t.Fatalf("rebuild at fixed seed changed the ann ranking")
	}
	// Vectorless swap: index dropped.
	dp.SetScorer(&fakeScorer{n: d.NumItems})
	if dp.ANNStats().Enabled {
		t.Fatalf("index kept across a vectorless swap")
	}
}

func TestNearestAndAnalogy(t *testing.T) {
	d := testData(t)
	sc := newVecScorer(d.NumUsers, d.NumItems, 24, 5)
	dp, _ := annDispatcher(t, sc)
	ctx := context.Background()

	anchor := api.EntityRef{Kind: api.KindItem, ID: 12}
	ns, info, degraded, err := dp.Nearest(ctx, anchor, 15, api.KindItem, Query{Mode: api.ModeANN})
	if err != nil || degraded {
		t.Fatalf("nearest: err=%v degraded=%v", err, degraded)
	}
	if info.Mode != api.ModeANN {
		t.Fatalf("nearest info = %+v", info)
	}
	if len(ns) != 15 {
		t.Fatalf("nearest returned %d results, want 15", len(ns))
	}
	for i, nb := range ns {
		if nb.Kind == anchor.Kind && nb.ID == anchor.ID {
			t.Fatalf("nearest returned the anchor itself")
		}
		if nb.Kind != api.KindItem {
			t.Fatalf("type filter item violated: %+v", nb)
		}
		if i > 0 && nb.Score > ns[i-1].Score {
			t.Fatalf("nearest not score-descending at %d", i)
		}
	}

	// mode=exact must agree with ann up to recall misses — and exactly
	// on the top hit for a healthy index.
	ex, info2, _, err := dp.Nearest(ctx, anchor, 15, api.KindItem, Query{Mode: api.ModeExact})
	if err != nil {
		t.Fatalf("exact nearest: %v", err)
	}
	if info2.Mode != api.ModeExact || info2.Fallback {
		t.Fatalf("exact nearest info = %+v", info2)
	}
	exIDs := make([]int, len(ex))
	gotIDs := make([]int, len(ns))
	for i := range ex {
		exIDs[i], gotIDs[i] = ex[i].ID, ns[i].ID
	}
	if eval.Overlap(exIDs, gotIDs) < 0.9 {
		t.Fatalf("nearest ann/exact overlap too low: %v vs %v", gotIDs, exIDs)
	}

	// "any" merges kinds deterministically and user filter works.
	both, _, _, err := dp.Nearest(ctx, anchor, 30, "any", Query{})
	if err != nil {
		t.Fatalf("nearest any: %v", err)
	}
	seenUser := false
	for _, nb := range both {
		if nb.Kind == api.KindUser {
			seenUser = true
		}
	}
	if !seenUser {
		t.Logf("nearest any returned no users (possible but unusual)")
	}

	a := api.EntityRef{Kind: api.KindItem, ID: 3}
	b := api.EntityRef{Kind: api.KindItem, ID: 4}
	c := api.EntityRef{Kind: api.KindUser, ID: 9}
	an, info3, _, err := dp.Analogy(ctx, a, b, c, 10, api.KindItem, Query{})
	if err != nil {
		t.Fatalf("analogy: %v", err)
	}
	if info3.Mode != api.ModeANN {
		t.Fatalf("analogy defaulted to %+v, want ann", info3)
	}
	for _, nb := range an {
		if (nb.Kind == a.Kind && nb.ID == a.ID) || (nb.Kind == b.Kind && nb.ID == b.ID) {
			t.Fatalf("analogy returned an anchor: %+v", nb)
		}
	}

	// Analogy parity: exact scan agrees with the index's view.
	anx, _, _, err := dp.Analogy(ctx, a, b, c, 10, api.KindItem, Query{Mode: api.ModeExact})
	if err != nil {
		t.Fatalf("exact analogy: %v", err)
	}
	aIDs := make([]int, len(an))
	xIDs := make([]int, len(anx))
	for i := range an {
		aIDs[i] = an[i].ID
	}
	for i := range anx {
		xIDs[i] = anx[i].ID
	}
	if eval.Overlap(xIDs, aIDs) < 0.9 {
		t.Fatalf("analogy ann/exact overlap too low: %v vs %v", aIDs, xIDs)
	}
}

// Semantic queries need embedding geometry: a dispatcher serving the
// popularity fallback answers ErrNoEmbeddings, not a bogus ranking.
func TestNearestNoEmbeddings(t *testing.T) {
	dp, _ := annDispatcher(t, nil) // boots degraded on the popularity prior
	_, _, degraded, err := dp.Nearest(context.Background(),
		api.EntityRef{Kind: api.KindItem, ID: 1}, 5, "", Query{})
	if err != ErrNoEmbeddings {
		t.Fatalf("err = %v, want ErrNoEmbeddings", err)
	}
	if !degraded {
		t.Fatalf("degraded flag not set on the popularity fallback")
	}
}

func TestANNStatsBlock(t *testing.T) {
	d := testData(t)
	sc := newVecScorer(d.NumUsers, d.NumItems, 24, 5)
	dp, _ := annDispatcher(t, sc)
	st := dp.ANNStats()
	if !st.Enabled || st.Levels < 1 || st.EfSearch < 1 {
		t.Fatalf("ann stats = %+v", st)
	}
	// Disabled config reports disabled regardless of scorer.
	dOff := testData(t)
	csr := dOff.CSR()
	off := New(Config{Dataset: dOff, CSR: csr,
		Fallback: eval.Popularity(dOff, csr), Scorer: sc})
	if off.ANNStats().Enabled {
		t.Fatalf("disabled ann reports enabled")
	}
}
