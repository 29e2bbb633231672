package fm

import (
	"context"
	"testing"

	"repro/internal/models"
	"repro/internal/models/modeltest"
)

func TestFMLearns(t *testing.T) {
	d := modeltest.TinyDataset(t)
	got := modeltest.AssertLearns(t, New(), d, modeltest.QuickConfig(), 2)
	t.Logf("FM recall@20=%.4f ndcg@20=%.4f", got.Recall, got.NDCG)
}

func TestFMDeterministic(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 2
	modeltest.AssertDeterministic(t, func() models.Trainer { return New() }, d, cfg)
}

// The inference cache must reproduce the training-graph scores exactly.
func TestFMInferenceMatchesTrainingGraph(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := New()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, d.NumItems)
	m.ScoreItems(3, out)
	// Recompute one score through the autograd path.
	users := []int{3}
	items := []int{5}
	tp := newScoreTape(m, users, items)
	want := tp
	if diff := out[5] - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("inference %v != training-graph %v", out[5], want)
	}
}
