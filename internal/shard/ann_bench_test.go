package shard

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/serve/api"
)

// BenchmarkRecommendMode drives single-user recommend through the
// dispatcher in exact and ann mode — the payload scripts/bench_ann.sh
// records. The ann row additionally reports mean recall@100 against
// the exact ranking, so BENCH_ann.json carries the latency and the
// fidelity of the approximation side by side. Caches are flushed
// between iterations: the benchmark measures scoring, not the score
// cache.
func BenchmarkRecommendMode(b *testing.B) {
	d := testData(b)
	sc := newVecScorer(d.NumUsers, d.NumItems, 24, 5)
	for _, mode := range []string{api.ModeExact, api.ModeANN} {
		b.Run("mode="+mode, func(b *testing.B) {
			dp, _ := annDispatcher(b, sc)
			ctx := context.Background()
			q := Query{Mode: mode}
			recall := -1.0
			if mode == api.ModeANN {
				var sum float64
				for u := 0; u < d.NumUsers; u++ {
					exact, _, _ := dp.Recommend(ctx, u, 100, Query{Mode: api.ModeExact})
					got, info, _ := dp.Recommend(ctx, u, 100, q)
					if info.Fallback {
						b.Fatal("ann benchmark fell back to exact scoring")
					}
					sum += eval.Overlap(exact.Items, got.Items)
				}
				recall = sum / float64(d.NumUsers)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dp.Invalidate()
				dp.Recommend(ctx, i%d.NumUsers, 100, q)
			}
			// ResetTimer clears user metrics, so report after the loop.
			if recall >= 0 {
				b.ReportMetric(recall, "recall@100")
			}
		})
	}
}
