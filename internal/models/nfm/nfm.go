// Package nfm implements the Neural Factorization Machine baseline (He
// & Chua 2017) of Table II: the FM's bi-interaction pooling layer
// followed by one hidden layer (§VI-C: "we employ one hidden layer on
// input features"), trained pairwise with BPR.
//
//	BI(S)  = ½ ( (Σ_{f∈S} v_f)² − Σ_{f∈S} v_f² )        (element-wise)
//	ŷ(S)   = w₀ + Σ w_f + pᵀ · ReLU(W₁ · BI(S) + b₁)
package nfm

import (
	"context"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/models/shared"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Model is an NFM ranker.
type Model struct {
	feats  *shared.Features
	w      *autograd.Param // F×1 linear
	v      *autograd.Param // F×d factors
	w1     *autograd.Param // h×d hidden layer
	b1     *autograd.Param // 1×h bias
	p      *autograd.Param // h×1 projection
	dim    int
	hidden int
	nIt    int

	itemVSum   *tensor.Dense
	itemVSqSum *tensor.Dense
	itemWSum   []float64
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained model with hidden width 64.
func New() *Model { return &Model{hidden: 64} }

// Name implements models.Trainer.
func (m *Model) Name() string { return "NFM" }

// biPool builds the bi-interaction vector for a batch.
func (m *Model) biPool(tp *autograd.Tape, bc *shared.BatchCtx, v *autograd.Node,
	users, items []int) (bi, linear *autograd.Node) {
	var flat []int
	var seg []int
	for ex := range users {
		start := len(flat)
		flat = m.feats.Pair(flat, users[ex], items[ex])
		for i := start; i < len(flat); i++ {
			seg = append(seg, ex)
		}
	}
	b := len(users)
	vf := tp.Gather(v, flat)
	sumV := tp.SegmentSumRows(vf, seg, b) // B×d
	sqOfSum := tp.Mul(sumV, sumV)
	sumOfSq := tp.SegmentSumRows(tp.Mul(vf, vf), seg, b)
	bi = tp.Scale(tp.Sub(sqOfSum, sumOfSq), 0.5)
	w := bc.Leaf(tp, m.w)
	linear = tp.SegmentSumRows(tp.Gather(w, flat), seg, b)
	return bi, linear
}

// score builds the full NFM score node for a batch, applying dropout to
// the bi-interaction layer during training.
func (m *Model) score(tp *autograd.Tape, bc *shared.BatchCtx, v *autograd.Node,
	users, items []int, dropout float64, g *rng.RNG) *autograd.Node {
	bi, linear := m.biPool(tp, bc, v, users, items)
	if dropout > 0 {
		bi = tp.Dropout(bi, dropout, g)
	}
	h := tp.ReLU(tp.AddRowVec(tp.MatMulT(bi, bc.Leaf(tp, m.w1)), bc.Leaf(tp, m.b1)))
	deep := tp.MatMul(h, bc.Leaf(tp, m.p)) // B×1
	return tp.Add(linear, deep)
}

// Train implements models.Trainer: BPR with Adam on the shared engine.
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("nfm")
	m.feats = shared.BuildFeatures(d)
	m.dim = cfg.EmbedDim
	m.nIt = d.NumItems
	m.w = autograd.NewParam("nfm.w", m.feats.NumFeatures, 1)
	optim.NormalInit(m.w, g.Split("w"), 0.01)
	m.v = shared.NewEmbedding("nfm.v", m.feats.NumFeatures, cfg.EmbedDim, g.Split("v"))
	m.w1 = shared.NewEmbedding("nfm.w1", m.hidden, cfg.EmbedDim, g.Split("w1"))
	m.b1 = autograd.NewParam("nfm.b1", 1, m.hidden)
	m.p = shared.NewEmbedding("nfm.p", m.hidden, 1, g.Split("p"))
	params := []*autograd.Param{m.w, m.v, m.w1, m.b1, m.p}
	err := shared.Train(ctx, d, cfg, shared.Spec{
		Label:   "nfm",
		Params:  params,
		Opt:     optim.NewAdam(params, cfg.LR, 0),
		Base:    g.Split("engine"),
		Neg:     d.NewNegSampler(cfg.Seed),
		Streams: map[string]*rng.RNG{"dropout": g.Split("dropout")},
		Loss: func(tp *autograd.Tape, bc *shared.BatchCtx, users, pos, negs []int) *autograd.Node {
			v := bc.Leaf(tp, m.v)
			drop := bc.RNG("dropout")
			posScore := m.score(tp, bc, v, users, pos, cfg.Dropout, drop)
			negScore := m.score(tp, bc, v, users, negs, cfg.Dropout, drop)
			loss := shared.BPRLoss(tp, posScore, negScore)
			return tp.Add(loss, shared.L2Reg(tp, cfg.L2, v))
		},
	})
	if err != nil {
		return err
	}
	m.buildInferenceCache()
	return nil
}

func (m *Model) buildInferenceCache() {
	m.itemVSum = tensor.New(m.nIt, m.dim)
	m.itemVSqSum = tensor.New(m.nIt, m.dim)
	m.itemWSum = make([]float64, m.nIt)
	for i := 0; i < m.nIt; i++ {
		feats := append([]int{m.feats.ItemFeature(i)}, m.feats.ItemAttrFeatures(i)...)
		sum := m.itemVSum.Row(i)
		sq := m.itemVSqSum.Row(i)
		for _, f := range feats {
			row := m.v.Value.Row(f)
			for j, x := range row {
				sum[j] += x
				sq[j] += x * x
			}
			m.itemWSum[i] += m.w.Value.Data[f]
		}
	}
}

// ScoreItems implements eval.Scorer. Per user it computes the
// bi-interaction vector for every item and pushes the batch through the
// hidden layer with a single matrix product.
func (m *Model) ScoreItems(user int, out []float64) {
	uf := m.feats.UserFeature(user)
	eu := m.v.Value.Row(uf)
	wu := m.w.Value.Data[uf]
	// BI(u, i) = e_u ⊙ s_i + ½(s_i² − q_i)  — assemble for all items.
	bi := tensor.New(m.nIt, m.dim)
	for i := 0; i < m.nIt; i++ {
		s := m.itemVSum.Row(i)
		q := m.itemVSqSum.Row(i)
		row := bi.Row(i)
		for j := range s {
			row[j] = eu[j]*s[j] + 0.5*(s[j]*s[j]-q[j])
		}
	}
	h := tensor.New(m.nIt, m.hidden)
	tensor.MatMulT(h, bi, m.w1.Value)
	for i := 0; i < m.nIt; i++ {
		hr := h.Row(i)
		var deep float64
		for j := range hr {
			x := hr[j] + m.b1.Value.Data[j]
			if x > 0 {
				deep += x * m.p.Value.Data[j]
			}
		}
		out[i] = wu + m.itemWSum[i] + deep
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nIt }
