package ripplenet

import (
	"context"
	"testing"

	"repro/internal/models"
	"repro/internal/models/modeltest"
)

func TestRippleNetLearns(t *testing.T) {
	d := modeltest.TinyDataset(t)
	got := modeltest.AssertLearns(t, New(), d, modeltest.QuickConfig(), 2)
	t.Logf("RippleNet recall@20=%.4f ndcg@20=%.4f", got.Recall, got.NDCG)
}

func TestRippleNetDeterministic(t *testing.T) {
	d := modeltest.TinyDataset(t)
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 2
	modeltest.AssertDeterministic(t, func() models.Trainer { return New() }, d, cfg)
}

func TestRippleSetsStayOffUsers(t *testing.T) {
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
	for u := 0; u < d.NumUsers; u++ {
		for h := 0; h < m.hops; h++ {
			for s := 0; s < m.setLen; s++ {
				if isUser[m.rippleT[u][h][s]] {
					t.Fatal("ripple set reached a user entity")
				}
			}
		}
	}
}

func TestRippleSetsSeededByHistory(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := New()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	// hop-0 heads must come from the user's training items.
	for u := 0; u < d.NumUsers && u < 20; u++ {
		if len(d.TrainByUser[u]) == 0 {
			continue
		}
		own := map[int]bool{}
		for _, it := range d.TrainByUser[u] {
			own[d.ItemEnt[it]] = true
		}
		for _, h := range m.rippleH[u][0] {
			if !own[h] {
				t.Fatalf("user %d hop-1 head %d not in training history", u, h)
			}
		}
	}
}
