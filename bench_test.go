// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation section (§VI) under `go test
// -bench`. Each benchmark runs the corresponding experiment end to end
// on the "quick" profile (downscaled GAGE, reduced training budget) and
// reports the headline metrics via b.ReportMetric, so the shape of the
// paper's results — who wins, by roughly what factor — is visible
// straight from the benchmark output. The paper-scale numbers live in
// EXPERIMENTS.md and are produced by `go run ./cmd/experiments -profile
// full`.
package repro

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/trace"
)

// BenchmarkTable1_CKGStats regenerates Table I (CKG statistics).
func BenchmarkTable1_CKGStats(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable1(p)
		b.ReportMetric(float64(rows[0].Ours.Entities), "OOI-entities")
		b.ReportMetric(float64(rows[0].Ours.KGTriples), "OOI-KG-triples")
		b.ReportMetric(float64(rows[1].Ours.Entities), "GAGE-entities")
		b.ReportMetric(float64(rows[1].Ours.KGTriples), "GAGE-KG-triples")
	}
}

// BenchmarkTable2_OverallComparison regenerates Table II: all eight
// models on both facilities. The reported metrics are CKAT's recall@20
// and its improvement over the best baseline (the "% Impro." row).
func BenchmarkTable2_OverallComparison(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, impro := experiments.RunTable2(p)
		ckat := rows[len(rows)-1]
		b.ReportMetric(ckat.OOIRecall, "CKAT-OOI-recall@20")
		b.ReportMetric(ckat.GAGERecall, "CKAT-GAGE-recall@20")
		b.ReportMetric(impro.OOIRecall, "OOI-impro-%")
		b.ReportMetric(impro.GAGERecall, "GAGE-impro-%")
	}
}

// BenchmarkTable3_KnowledgeSources regenerates Table III: CKAT under
// the six knowledge-source combinations. Reported: the full-CKG recall
// and the delta when the MD noise is added (negative = noise hurts, the
// paper's finding).
func BenchmarkTable3_KnowledgeSources(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable3(p)
		full := rows[4] // UIG+UUG+LOC+DKG
		withMD := rows[5]
		b.ReportMetric(full.OOIRecall, "full-OOI-recall@20")
		b.ReportMetric(full.GAGERecall, "full-GAGE-recall@20")
		b.ReportMetric(withMD.OOIRecall-full.OOIRecall, "MD-delta-OOI")
		b.ReportMetric(withMD.GAGERecall-full.GAGERecall, "MD-delta-GAGE")
	}
}

// BenchmarkTable4_AttentionAggregators regenerates Table IV: the
// attention and aggregator ablations. Reported: recall deltas of
// dropping attention and of switching concat→sum (both negative in the
// paper).
func BenchmarkTable4_AttentionAggregators(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable4(p)
		base, sum, noAtt := rows[0], rows[1], rows[2]
		b.ReportMetric(base.OOIRecall, "att-concat-OOI-recall@20")
		b.ReportMetric(sum.OOIRecall-base.OOIRecall, "sum-delta-OOI")
		b.ReportMetric(noAtt.OOIRecall-base.OOIRecall, "noAtt-delta-OOI")
		b.ReportMetric(noAtt.GAGERecall-base.GAGERecall, "noAtt-delta-GAGE")
	}
}

// BenchmarkTable5_Depth regenerates Table V: CKAT with 1-3 propagation
// layers. Reported: recall per depth (monotone non-decreasing in the
// paper).
func BenchmarkTable5_Depth(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable5(p)
		for d, r := range rows {
			switch d {
			case 0:
				b.ReportMetric(r.OOIRecall, "CKAT-1-OOI-recall@20")
			case 1:
				b.ReportMetric(r.OOIRecall, "CKAT-2-OOI-recall@20")
			case 2:
				b.ReportMetric(r.OOIRecall, "CKAT-3-OOI-recall@20")
			}
		}
	}
}

// BenchmarkFigure3_QueryDistributions regenerates the Fig. 3 per-user
// query distribution curves.
func BenchmarkFigure3_QueryDistributions(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig3(p)
		b.ReportMetric(float64(rows[0].Max), "OOI-max-objects")
		b.ReportMetric(float64(rows[0].Median), "OOI-median-objects")
		b.ReportMetric(float64(rows[3].Max), "GAGE-max-objects")
	}
}

// BenchmarkFigure4_TSNE regenerates the Fig. 4 t-SNE study: same-org
// users produce overlapping clusters (inter/intra ≈ 1) and distinct
// organizations separate (cross-org > 1).
func BenchmarkFigure4_TSNE(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig4(p)
		b.ReportMetric(rows[0].SameOrgQuality, "OOI-sameorg-ratio")
		b.ReportMetric(rows[0].CrossOrgQuality, "OOI-crossorg-ratio")
		b.ReportMetric(rows[1].SameOrgQuality, "GAGE-sameorg-ratio")
	}
}

// BenchmarkFigure5_LocalityAffinity regenerates the Fig. 5 pair study:
// same-city pairs share query patterns far more often than random
// pairs (paper: 79.8×/29.8× OOI, 22.87×/2.21× GAGE).
func BenchmarkFigure5_LocalityAffinity(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig5(p)
		b.ReportMetric(rows[0].LocRatio, "OOI-loc-ratio")
		b.ReportMetric(rows[0].TypeRatio, "OOI-type-ratio")
		b.ReportMetric(rows[1].LocRatio, "GAGE-loc-ratio")
		b.ReportMetric(rows[1].TypeRatio, "GAGE-type-ratio")
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks (ablation-level costs)
// ---------------------------------------------------------------------------

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 120
	cfg.NumOrgs = 12
	tr := trace.Generate(cat, cfg, 7)
	return dataset.Build(tr, dataset.AllSources(), 7)
}

// BenchmarkCKATEpoch measures one full CKAT training epoch (TransR
// phase + attention recomputation + propagation/BPR phase).
func BenchmarkCKATEpoch(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewDefault()
		if err := m.Train(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCKATAttention measures the per-epoch knowledge-aware
// attention recomputation in isolation (ablation: this is the extra
// cost of "w/ Att" over "w/o Att" in Table IV).
func BenchmarkCKATAttention(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 1
	withAtt := core.DefaultOptions()
	m := core.New(withAtt)
	if err := m.Train(context.Background(), d, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RecomputeAttention()
	}
}

// BenchmarkFullRankingEval measures the evaluation protocol: scoring
// every item for every test user.
func BenchmarkFullRankingEval(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 1
	m := core.NewDefault()
	if err := m.Train(context.Background(), d, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Evaluate(d, m, 20)
	}
}

// BenchmarkTSNE measures the exact t-SNE used for Fig. 4.
func BenchmarkTSNE(b *testing.B) {
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 120
	tr := trace.Generate(cat, cfg, 7)
	in := analysis.TSNEInput(tr, 8, 30)
	tcfg := analysis.DefaultTSNEConfig()
	tcfg.Iterations = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.TSNE(in.Points, tcfg)
	}
}

// BenchmarkCKGConstruction measures building the collaborative
// knowledge graph from a trace.
func BenchmarkCKGConstruction(b *testing.B) {
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 120
	tr := trace.Generate(cat, cfg, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataset.Build(tr, dataset.AllSources(), 7)
	}
}

// BenchmarkTraceGeneration measures the synthetic query simulator.
func BenchmarkTraceGeneration(b *testing.B) {
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Generate(cat, cfg, int64(i))
	}
}

// BenchmarkCKATAttentionSerial is the serial counterpart of
// BenchmarkCKATAttention: together they quantify the relation-parallel
// speedup of the §VII future-work implementation.
func BenchmarkCKATAttentionSerial(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 1
	opts := core.DefaultOptions()
	opts.ParallelAttention = false
	m := core.New(opts)
	if err := m.Train(context.Background(), d, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RecomputeAttention()
	}
}

// BenchmarkAblationNoKGPhase measures CKAT without the TransR embedding
// phase (dropping the L1 term of Eq. 13) — the DESIGN.md ablation of
// the joint objective. The reported recall delta shows how much the
// structured embedding layer contributes.
func BenchmarkAblationNoKGPhase(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 6
	for i := 0; i < b.N; i++ {
		full := core.NewDefault()
		if err := full.Train(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
		ablated := core.New(func() core.Options {
			o := core.DefaultOptions()
			o.SkipKGPhase = true
			return o
		}())
		if err := ablated.Train(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
		fullR := eval.Evaluate(d, full, 20).Recall
		ablR := eval.Evaluate(d, ablated, 20).Recall
		b.ReportMetric(fullR, "full-recall@20")
		b.ReportMetric(ablR, "noKG-recall@20")
		b.ReportMetric(fullR-ablR, "KG-phase-contribution")
	}
}

// BenchmarkColdStart probes the §II-B claim that knowledge graphs
// alleviate cold-start: recall per training-history bucket, CKAT vs the
// knowledge-free BPRMF. The reported metric is CKAT's advantage on the
// shortest-history bucket.
func BenchmarkColdStart(b *testing.B) {
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunColdStart(p)
		for _, r := range rows {
			if r.Users == 0 {
				continue
			}
			b.ReportMetric(r.CKATRecall-r.CFRecall, "adv-"+r.Bucket[:strings.IndexByte(r.Bucket, ' ')])
		}
	}
}

// BenchmarkKSweep reports CKAT recall across cutoffs K ∈ {5,10,20,40}
// in one ranking pass (the sensitivity of the paper's K=20 choice).
func BenchmarkKSweep(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 6
	m := core.NewDefault()
	if err := m.Train(context.Background(), d, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep := eval.EvaluateSweep(d, m, []int{5, 10, 20, 40})
		b.ReportMetric(sweep[5].Recall, "recall@5")
		b.ReportMetric(sweep[10].Recall, "recall@10")
		b.ReportMetric(sweep[20].Recall, "recall@20")
		b.ReportMetric(sweep[40].Recall, "recall@40")
	}
}

// benchServeModel trains one small CKAT for the serving benchmarks.
func benchServeModel(b *testing.B) (*dataset.Dataset, *core.Model) {
	b.Helper()
	d := benchDataset(b)
	m := core.NewDefault()
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 3
	if err := m.Train(context.Background(), d, cfg); err != nil {
		b.Fatal(err)
	}
	return d, m
}

// BenchmarkServeRecommend drives the cached /v1/recommend path with
// concurrent requests cycling over all users — the serving layer's
// hot path (score-vector LRU + copy + mask + top-K + render).
func BenchmarkServeRecommend(b *testing.B) {
	d, m := benchServeModel(b)
	s := serve.New(d, m)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		u := 0
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/recommend?user=%d&k=10", u%d.NumUsers), nil)
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				b.Errorf("status %d", rr.Code)
				return
			}
			u++
		}
	})
}

// BenchmarkServeSimilar measures the redesigned /v1/similar (parallel
// probe scoring over cached score vectors) against the pre-redesign
// algorithm — a linear user scan plus up-to-16 sequential full-catalog
// scoring passes per request — and reports the speedup. The acceptance
// bar for the serving-layer redesign is ≥ 2×.
func BenchmarkServeSimilar(b *testing.B) {
	d, m := benchServeModel(b)
	s := serve.New(d, m)

	// The busiest item exercises the full 16-probe budget.
	counts := make([]int, d.NumItems)
	for _, p := range d.Train {
		counts[p[1]]++
	}
	item, best := 0, 0
	for it, c := range counts {
		if c > best {
			item, best = it, c
		}
	}

	// Sequential baseline: exactly the old handler's algorithm.
	sequential := func() {
		var probes []int
		for u := 0; u < d.NumUsers && len(probes) < 16; u++ {
			if d.InTrain(u, item) {
				probes = append(probes, u)
			}
		}
		agg := make([]float64, d.NumItems)
		scores := make([]float64, d.NumItems)
		for _, u := range probes {
			m.ScoreItems(u, scores)
			for i, v := range scores {
				agg[i] += v
			}
		}
		agg[item] = math.Inf(-1)
		eval.TopK(agg, 10)
	}
	const baseReps = 10
	baseStart := time.Now()
	for i := 0; i < baseReps; i++ {
		sequential()
	}
	basePerOp := time.Since(baseStart) / baseReps

	path := fmt.Sprintf("/v1/similar?item=%d&k=10", item)
	drive := func(b *testing.B, s *serve.Server) {
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rr.Code, rr.Body)
			}
		}
	}

	b.Run("model", func(b *testing.B) {
		drive(b, s)
		b.StopTimer()
		perOp := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(basePerOp.Microseconds()), "sequential-baseline-us/op")
		if perOp > 0 {
			b.ReportMetric(float64(basePerOp)/float64(perOp), "speedup-vs-sequential")
		}
	})

	// Degraded serving answers from the popularity prior, which is now
	// derived from the frozen CSR's Interact-partition degrees instead
	// of a d.Train scan — the graph-core path the serving layer shares
	// with eval.
	b.Run("degraded-csr-prior", func(b *testing.B) {
		ds := serve.New(d, nil)
		drive(b, ds)
	})
}

// BenchmarkServeExplain measures /v1/explain: bounded path enumeration
// over the frozen CSR using a pooled PathFinder, so steady-state
// requests reuse the visited bitmap and path scratch instead of
// rebuilding a BFS queue and visited maps per call.
func BenchmarkServeExplain(b *testing.B) {
	d, m := benchServeModel(b)
	s := serve.New(d, m)
	// A training pair guarantees at least one knowledge path exists.
	u, item := d.Train[0][0], d.Train[0][1]
	path := fmt.Sprintf("/v1/explain?user=%d&item=%d", u, item)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
}

// BenchmarkFitSequential is the baseline for BenchmarkFitParallel: one
// CKAT training run on the legacy sequential path (workers=1).
func BenchmarkFitSequential(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 1
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewDefault()
		if err := m.Train(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitParallel runs the same training with the round-parallel
// engine at 4 workers and reports the speedup over an inline sequential
// baseline. On a single-core host the two paths cost about the same
// (the parallel schedule adds only round bookkeeping); the speedup
// metric becomes meaningful with 4+ cores.
func BenchmarkFitParallel(b *testing.B) {
	d := benchDataset(b)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 1

	seqCfg := cfg
	seqCfg.Workers = 1
	const baseReps = 2
	baseStart := time.Now()
	for i := 0; i < baseReps; i++ {
		m := core.NewDefault()
		if err := m.Train(context.Background(), d, seqCfg); err != nil {
			b.Fatal(err)
		}
	}
	basePerOp := time.Since(baseStart) / baseReps

	cfg.Workers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewDefault()
		if err := m.Train(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(basePerOp.Seconds(), "sequential-baseline-s/op")
	if perOp > 0 {
		b.ReportMetric(float64(basePerOp)/float64(perOp), "speedup-vs-sequential")
	}
}
