package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/models"
	"repro/internal/models/modeltest"
)

func TestCKATLearns(t *testing.T) {
	d := modeltest.TinyDataset(t)
	got := modeltest.AssertLearns(t, NewDefault(), d, modeltest.QuickConfig(), 3)
	t.Logf("CKAT recall@20=%.4f ndcg@20=%.4f", got.Recall, got.NDCG)
}

func TestCKATDeterministic(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 2
	modeltest.AssertDeterministic(t, func() models.Trainer { return NewDefault() }, d, cfg)
}

func TestCKATAttentionNormalized(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := NewDefault()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	adj, att := m.AttentionOn()
	for h := 0; h < d.Graph.NumEntities(); h++ {
		lo, hi := adj.Neighbors(h)
		if hi == lo {
			continue
		}
		var sum float64
		for i := lo; i < hi; i++ {
			if att.Data[i] < 0 {
				t.Fatalf("negative attention weight %v", att.Data[i])
			}
			sum += att.Data[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("attention over neighborhood of %d sums to %v", h, sum)
		}
	}
}

func TestCKATUniformAttentionWithoutAtt(t *testing.T) {
	d := modeltest.TinyDataset(t)
	opts := DefaultOptions()
	opts.UseAttention = false
	m := New(opts)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	adj, att := m.AttentionOn()
	for h := 0; h < 50; h++ {
		lo, hi := adj.Neighbors(h)
		if hi-lo < 2 {
			continue
		}
		w := att.Data[lo]
		for i := lo; i < hi; i++ {
			if math.Abs(att.Data[i]-w) > 1e-12 {
				t.Fatal("w/o attention weights must be uniform per neighborhood")
			}
		}
		if math.Abs(w-1/float64(hi-lo)) > 1e-12 {
			t.Fatalf("uniform weight %v != 1/deg", w)
		}
	}
}

func TestCKATSumAggregatorTrains(t *testing.T) {
	d := modeltest.TinyDataset(t)
	opts := DefaultOptions()
	opts.Aggregator = AggSum
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 4
	m := New(opts)
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	got := eval.Evaluate(d, m, 20)
	if got.Recall <= 0 {
		t.Fatal("sum aggregator produced zero recall")
	}
}

func TestCKATDepthVariants(t *testing.T) {
	d := modeltest.TinyDataset(t)
	for _, layers := range [][]int{{64}, {64, 32}, {64, 32, 16}} {
		opts := DefaultOptions()
		opts.Layers = layers
		cfg := modeltest.QuickConfig()
		cfg.Epochs = 2
		m := New(opts)
		if err := m.Train(context.Background(), d, cfg); err != nil {
			t.Fatal(err)
		}
		got := eval.Evaluate(d, m, 20)
		if got.Recall <= 0 {
			t.Fatalf("depth %d produced zero recall", len(layers))
		}
		// Final representation width must be d0 + Σ layer dims.
		wantDim := 32
		for _, l := range layers {
			wantDim += l
		}
		if got := len(m.FinalEmbedding(0)); got != wantDim {
			t.Fatalf("final dim = %d, want %d", got, wantDim)
		}
	}
}

func TestCKATSkipKGPhaseStillLearns(t *testing.T) {
	d := modeltest.TinyDataset(t)
	opts := DefaultOptions()
	opts.SkipKGPhase = true
	m := New(opts)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 4
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	if got := eval.Evaluate(d, m, 20); got.Recall <= 0 {
		t.Fatalf("ablated CKAT recall = %v", got.Recall)
	}
}

func TestCKATParallelAttentionMatchesSerial(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 2
	par := NewDefault()
	if err := par.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	serOpts := DefaultOptions()
	serOpts.ParallelAttention = false
	ser := New(serOpts)
	if err := ser.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	_, attPar := par.AttentionOn()
	_, attSer := ser.AttentionOn()
	if !attPar.Equal(attSer, 1e-12) {
		t.Fatal("parallel attention diverges from serial")
	}
	if eval.Evaluate(d, par, 20) != eval.Evaluate(d, ser, 20) {
		t.Fatal("parallel/serial CKAT metrics differ")
	}
}
