// Package cfkg implements the CFKG baseline (Ai et al. 2018) of Table
// II: TransE over the unified graph in which the user–item Interact
// edges are just one more relation type. Recommendation scores are
// translation distances: ŷ(u, v) = −‖e_u + r_interact − e_v‖².
package cfkg

import (
	"context"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/models/shared"
	"repro/internal/optim"
	"repro/internal/rng"
)

// Model is a CFKG recommender.
type Model struct {
	transe   *shared.TransE
	userEnt  []int
	itemEnt  []int
	interact int
	nItems   int
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained model.
func New() *Model { return &Model{} }

// Name implements models.Trainer.
func (m *Model) Name() string { return "CFKG" }

// Train implements models.Trainer: TransE over all CKG triples (which
// include the training Interact edges) with the margin loss, plus extra
// Interact batches with corrupted item tails so the recommendation
// relation is trained against ranking-relevant negatives.
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("cfkg")
	m.nItems = d.NumItems
	m.userEnt = d.UserEnt
	m.itemEnt = d.ItemEnt
	m.interact = d.Interact
	m.transe = shared.NewTransE(d.Graph.NumEntities(), d.Graph.NumRelations(),
		cfg.EmbedDim, g.Split("e"))
	return shared.Train(ctx, d, cfg, shared.Spec{
		Label:        "cfkg",
		Params:       m.transe.Params(),
		Opt:          optim.NewAdam(m.transe.Params(), cfg.LR, 0),
		Base:         g.Split("engine"),
		Neg:          d.NewNegSampler(cfg.Seed),
		Samplers:     map[string]*shared.KGSampler{"kgneg": shared.NewKGSampler(d.Graph, g.Split("kgneg"))},
		ExtraSamples: len(d.Train), // one structural triple per interaction pair
		Loss: func(tp *autograd.Tape, bc *shared.BatchCtx, users, pos, negs []int) *autograd.Node {
			te := bc.TransE(m.transe)
			// Interact triples with item-space negatives.
			n := len(users)
			heads := make([]int, n)
			rels := make([]int, n)
			tails := make([]int, n)
			negT := make([]int, n)
			for i := range users {
				heads[i] = m.userEnt[users[i]]
				rels[i] = m.interact
				tails[i] = m.itemEnt[pos[i]]
				negT[i] = m.itemEnt[negs[i]]
			}
			loss := te.MarginLoss(tp, heads, rels, tails, negT, 1.0)
			// Structural triples with uniform corrupted tails.
			h, r, tl, nt := bc.KG("kgneg").Batch(n)
			return tp.Add(loss, te.MarginLoss(tp, h, r, tl, nt, 1.0))
		},
	})
}

// ScoreItems implements eval.Scorer: −‖e_u + r_interact − e_v‖².
func (m *Model) ScoreItems(user int, out []float64) {
	u := m.transe.Ent.Value.Row(m.userEnt[user])
	r := m.transe.Rel.Value.Row(m.interact)
	target := make([]float64, len(u))
	for j := range u {
		target[j] = u[j] + r[j]
	}
	for i := 0; i < m.nItems; i++ {
		v := m.transe.Ent.Value.Row(m.itemEnt[i])
		var dist float64
		for j := range target {
			diff := target[j] - v[j]
			dist += diff * diff
		}
		out[i] = -dist
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nItems }
