package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/models/modeltest"
)

// Workers<=1 takes the exact legacy sequential path: the same RNG
// streams are consumed in the same order, so Train(workers=1) must
// reproduce the default Workers=0 run bit-for-bit.
func TestCKATWorkersOneMatchesSequential(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 3

	seq := NewDefault()
	if err := seq.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	want := eval.Evaluate(d, seq, 20)

	cfg.Workers = 1
	m := NewDefault()
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if got := eval.Evaluate(d, m, 20); got != want {
		t.Fatalf("workers=1 diverged from workers=0: %+v vs %+v", got, want)
	}
}

// A fixed worker count > 1 yields a fixed round schedule and fixed
// per-(epoch, batch) RNG streams: repeated runs must agree exactly.
func TestCKATParallelDeterministic(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 2
	cfg.Workers = 4
	run := func() eval.Metrics {
		m := NewDefault()
		if err := m.Train(context.Background(), d, cfg); err != nil {
			t.Fatalf("Train: %v", err)
		}
		return eval.Evaluate(d, m, 20)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("workers=4 not deterministic: %+v vs %+v", a, b)
	}
}

// Round-parallel CKAT differs numerically from sequential (one round
// of gradient staleness, independent neg-sampling streams) but must
// remain a comparable model.
func TestCKATParallelQualityBand(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()

	seq := NewDefault()
	if err := seq.Train(context.Background(), d, cfg); err != nil {
		t.Fatalf("Train sequential: %v", err)
	}
	seqRecall := eval.Evaluate(d, seq, 20).Recall

	cfg.Workers = 4
	par := NewDefault()
	if err := par.Train(context.Background(), d, cfg); err != nil {
		t.Fatalf("Train parallel: %v", err)
	}
	parRecall := eval.Evaluate(d, par, 20).Recall

	if parRecall < 0.5*seqRecall || parRecall > 2.0*seqRecall {
		t.Fatalf("parallel recall %.4f outside [0.5, 2.0]× sequential %.4f",
			parRecall, seqRecall)
	}
	if floor := modeltest.RandomBaselineRecall(t, d, 20); parRecall < 2*floor {
		t.Fatalf("parallel recall %.4f does not beat 2× random floor %.4f",
			parRecall, floor)
	}
}

// A cancelled context aborts CKAT training between rounds regardless of
// which phase it is in.
func TestCKATTrainCancellation(t *testing.T) {
	d := modeltest.TinyDataset(t)
	for _, workers := range []int{1, 4} {
		cfg := modeltest.QuickConfig()
		cfg.Epochs = 50
		cfg.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m := NewDefault()
		if err := m.Train(ctx, d, cfg); err != context.Canceled {
			t.Fatalf("workers=%d: Train on cancelled ctx = %v, want context.Canceled",
				workers, err)
		}
	}
}

// RecomputeAttention writes the attention buffer while ScoreItems reads
// only the final propagated embeddings; the two must be safe to run
// concurrently (exercised under -race) and attention recomputation must
// not perturb scores.
func TestCKATRecomputeAttentionConcurrentScoring(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := NewDefault()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}

	before := make([]float64, d.NumItems)
	m.ScoreItems(0, before)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				m.RecomputeAttention()
			}
		}()
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			scores := make([]float64, d.NumItems)
			for i := 0; i < 20; i++ {
				m.ScoreItems(u, scores)
			}
		}(g)
	}
	wg.Wait()

	after := make([]float64, d.NumItems)
	m.ScoreItems(0, after)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("score %d changed after attention recompute: %v vs %v",
				i, before[i], after[i])
		}
	}
}
