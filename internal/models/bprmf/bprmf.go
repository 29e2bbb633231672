// Package bprmf implements Bayesian Personalized Ranking Matrix
// Factorization (Rendle et al. 2012), the collaborative-filtering
// baseline of Table II: user and item latent factors trained with the
// pairwise BPR loss on implicit feedback, with no knowledge-graph
// information at all.
package bprmf

import (
	"context"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/models/shared"
	"repro/internal/optim"
	"repro/internal/rng"
)

// Model is a BPR-MF recommender.
type Model struct {
	user, item *autograd.Param
	nItems     int
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained model.
func New() *Model { return &Model{} }

// Name implements models.Trainer.
func (m *Model) Name() string { return "BPRMF" }

// Train implements models.Trainer: mini-batch BPR with Adam on the
// shared engine.
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("bprmf")
	m.nItems = d.NumItems
	m.user = shared.NewEmbedding("bprmf.user", d.NumUsers, cfg.EmbedDim, g.Split("u"))
	m.item = shared.NewEmbedding("bprmf.item", d.NumItems, cfg.EmbedDim, g.Split("i"))
	params := []*autograd.Param{m.user, m.item}
	return shared.Train(ctx, d, cfg, shared.Spec{
		Label:  "bprmf",
		Params: params,
		Opt:    optim.NewAdam(params, cfg.LR, 0),
		Base:   g.Split("engine"),
		Neg:    d.NewNegSampler(cfg.Seed),
		Loss: func(tp *autograd.Tape, bc *shared.BatchCtx, users, pos, negs []int) *autograd.Node {
			u := tp.Gather(bc.Leaf(tp, m.user), users)
			vp := tp.Gather(bc.Leaf(tp, m.item), pos)
			vn := tp.Gather(bc.Leaf(tp, m.item), negs)
			loss := shared.BPRLoss(tp, tp.RowDot(u, vp), tp.RowDot(u, vn))
			return tp.Add(loss, shared.L2Reg(tp, cfg.L2, u, vp, vn))
		},
	})
}

// ScoreItems implements eval.Scorer: out[i] = <e_u, e_i>.
func (m *Model) ScoreItems(user int, out []float64) {
	u := m.user.Value.Row(user)
	for i := 0; i < m.nItems; i++ {
		v := m.item.Value.Row(i)
		var s float64
		for j := range u {
			s += u[j] * v[j]
		}
		out[i] = s
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nItems }
