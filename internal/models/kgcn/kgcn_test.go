package kgcn

import (
	"context"
	"testing"

	"repro/internal/models"
	"repro/internal/models/modeltest"
)

func TestKGCNLearns(t *testing.T) {
	d := modeltest.TinyDataset(t)
	got := modeltest.AssertLearns(t, New(), d, modeltest.QuickConfig(), 2)
	t.Logf("KGCN recall@20=%.4f ndcg@20=%.4f", got.Recall, got.NDCG)
}

func TestKGCNDeterministic(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 2
	modeltest.AssertDeterministic(t, func() models.Trainer { return New() }, d, cfg)
}

func TestKGCNNeighborhoodsExcludeUsers(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := New()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	isUser := map[int]bool{}
	for _, e := range d.UserEnt {
		isUser[e] = true
	}
	for _, e := range d.ItemEnt {
		for _, n := range m.neighbors[e] {
			if isUser[n] {
				t.Fatal("item neighborhood contains a user entity")
			}
		}
	}
}
