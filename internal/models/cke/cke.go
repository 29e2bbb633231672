// Package cke implements Collaborative Knowledge-base Embedding (Zhang
// et al. 2016), the regularization-based baseline of Table II: matrix
// factorization whose item representation is the sum of a collaborative
// latent vector and the item's TransR structural embedding, trained
// jointly with BPR on interactions and the TransR margin loss on the
// knowledge graph.
package cke

import (
	"context"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/models/shared"
	"repro/internal/optim"
	"repro/internal/rng"
)

// Model is a CKE recommender.
type Model struct {
	user    *autograd.Param // users×d collaborative factors
	item    *autograd.Param // items×d collaborative factors
	transr  *shared.TransR  // structural embeddings over CKG entities
	itemEnt []int
	nItems  int
	dim     int
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained model.
func New() *Model { return &Model{} }

// Name implements models.Trainer.
func (m *Model) Name() string { return "CKE" }

// Train implements models.Trainer: BPR + TransR trained jointly,
// alternating one interaction batch with one KG batch per step (the
// usual CKE optimization), on the shared engine.
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("cke")
	m.nItems = d.NumItems
	m.dim = cfg.EmbedDim
	m.itemEnt = d.ItemEnt
	m.user = shared.NewEmbedding("cke.user", d.NumUsers, cfg.EmbedDim, g.Split("u"))
	m.item = shared.NewEmbedding("cke.item", d.NumItems, cfg.EmbedDim, g.Split("i"))
	m.transr = shared.NewTransR(d.Graph.NumEntities(), d.Graph.NumRelations(),
		cfg.EmbedDim, cfg.EmbedDim, g.Split("kg"))
	params := append([]*autograd.Param{m.user, m.item}, m.transr.Params()...)
	return shared.Train(ctx, d, cfg, shared.Spec{
		Label:        "cke",
		Params:       params,
		Opt:          optim.NewAdam(params, cfg.LR, 0),
		Base:         g.Split("engine"),
		Neg:          d.NewNegSampler(cfg.Seed),
		Samplers:     map[string]*shared.KGSampler{"kgneg": shared.NewKGSampler(d.Graph, g.Split("kgneg"))},
		ExtraSamples: len(d.Train), // one structural triple per interaction pair
		Loss: func(tp *autograd.Tape, bc *shared.BatchCtx, users, pos, negs []int) *autograd.Node {
			u := tp.Gather(bc.Leaf(tp, m.user), users)
			ent := bc.Leaf(tp, m.transr.Ent)
			vp := tp.Add(tp.Gather(bc.Leaf(tp, m.item), pos), tp.Gather(ent, entIdx(m.itemEnt, pos)))
			vn := tp.Add(tp.Gather(bc.Leaf(tp, m.item), negs), tp.Gather(ent, entIdx(m.itemEnt, negs)))
			loss := shared.BPRLoss(tp, tp.RowDot(u, vp), tp.RowDot(u, vn))
			// TransR structural loss on a same-sized KG batch.
			h, r, tl, nt := bc.KG("kgneg").Batch(len(users))
			loss = tp.Add(loss, bc.TransR(m.transr).MarginLoss(tp, h, r, tl, nt, 1.0))
			return tp.Add(loss, shared.L2Reg(tp, cfg.L2, u, vp, vn))
		},
	})
}

// entIdx maps item indices to their CKG entity IDs.
func entIdx(itemEnt, items []int) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = itemEnt[it]
	}
	return out
}

// ScoreItems implements eval.Scorer: <e_u, v_i + ent_i>.
func (m *Model) ScoreItems(user int, out []float64) {
	u := m.user.Value.Row(user)
	for i := 0; i < m.nItems; i++ {
		v := m.item.Value.Row(i)
		e := m.transr.Ent.Value.Row(m.itemEnt[i])
		var s float64
		for j := range u {
			s += u[j] * (v[j] + e[j])
		}
		out[i] = s
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nItems }
