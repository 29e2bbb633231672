package shared_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/models"
	"repro/internal/models/bprmf"
	"repro/internal/models/modeltest"
)

// The engine's central determinism contract: workers <= 1 must follow
// the historical sequential code path exactly, so Train with Workers 0
// (the default) and Workers 1 land on identical metrics, run after run.
func TestSequentialWorkersMatchFit(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()

	seq := bprmf.New()
	if err := seq.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	want := eval.Evaluate(d, seq, 20)

	for _, workers := range []int{0, 1} {
		c := cfg
		c.Workers = workers
		m := bprmf.New()
		if err := m.Train(context.Background(), d, c); err != nil {
			t.Fatalf("Train(workers=%d): %v", workers, err)
		}
		if got := eval.Evaluate(d, m, 20); got != want {
			t.Fatalf("workers=%d diverged from sequential: %+v vs %+v",
				workers, got, want)
		}
	}
}

// For a fixed worker count > 1, the round schedule, derived RNG
// streams, and merge order are all deterministic: two runs must agree
// bit-for-bit on the evaluated metrics.
func TestParallelTrainingDeterministic(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Workers = 3
	run := func() eval.Metrics {
		m := bprmf.New()
		if err := m.Train(context.Background(), d, cfg); err != nil {
			t.Fatalf("Train: %v", err)
		}
		return eval.Evaluate(d, m, 20)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("workers=3 not deterministic: %+v vs %+v", a, b)
	}
}

// Round-parallel training trades one round of gradient staleness for
// throughput; the result differs numerically from sequential but must
// stay a working model: within a sane band of the sequential recall and
// clearly above the random-ranking floor.
func TestParallelTrainingQualityBand(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()

	seq := bprmf.New()
	if err := seq.Train(context.Background(), d, cfg); err != nil {
		t.Fatalf("Train sequential: %v", err)
	}
	seqRecall := eval.Evaluate(d, seq, 20).Recall

	cfg.Workers = 4
	par := bprmf.New()
	if err := par.Train(context.Background(), d, cfg); err != nil {
		t.Fatalf("Train parallel: %v", err)
	}
	parRecall := eval.Evaluate(d, par, 20).Recall

	if parRecall < 0.5*seqRecall || parRecall > 2.0*seqRecall {
		t.Fatalf("parallel recall %.4f outside [0.5, 2.0]× sequential %.4f",
			parRecall, seqRecall)
	}
	floor := modeltest.RandomBaselineRecall(t, d, 20)
	if parRecall < 2*floor {
		t.Fatalf("parallel recall %.4f does not beat 2× random floor %.4f",
			parRecall, floor)
	}
}

// Cancelling the context aborts training between rounds with ctx.Err().
func TestTrainCancellation(t *testing.T) {
	d := modeltest.TinyDataset(t)
	for _, workers := range []int{1, 4} {
		cfg := modeltest.QuickConfig()
		cfg.Epochs = 50
		cfg.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m := bprmf.New()
		err := m.Train(ctx, d, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Train on cancelled ctx = %v, want context.Canceled",
				workers, err)
		}
	}
}

// Two independent models training concurrently (each with its own
// internal worker pool) must not interfere — exercised under -race.
func TestConcurrentTraining(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 2
	cfg.Workers = 2
	var wg sync.WaitGroup
	results := make([]eval.Metrics, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := bprmf.New()
			if err := m.Train(context.Background(), d, cfg); err != nil {
				t.Errorf("concurrent Train: %v", err)
				return
			}
			results[i] = eval.Evaluate(d, m, 20)
		}(i)
	}
	wg.Wait()
	if results[0] != results[1] {
		t.Fatalf("concurrent same-seed runs differ: %+v vs %+v", results[0], results[1])
	}
}

// The progress callback fires once per epoch with monotonically
// increasing epoch numbers and positive throughput.
func TestProgressCallback(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 3
	var events []models.ProgressEvent
	cfg.Progress = func(ev models.ProgressEvent) { events = append(events, ev) }
	m := bprmf.New()
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(events) != cfg.Epochs {
		t.Fatalf("progress events = %d, want %d", len(events), cfg.Epochs)
	}
	for i, ev := range events {
		if ev.Epoch != i+1 || ev.Epochs != cfg.Epochs {
			t.Fatalf("event %d has epoch %d/%d", i, ev.Epoch, ev.Epochs)
		}
		if ev.Model != "bprmf" || ev.Dataset != d.Name {
			t.Fatalf("event %d mislabelled: %+v", i, ev)
		}
		if ev.SamplesPerSec <= 0 || ev.Samples <= 0 {
			t.Fatalf("event %d has no throughput: %+v", i, ev)
		}
	}
}
