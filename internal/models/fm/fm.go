// Package fm implements the Factorization Machine baseline (Rendle
// 2011) of Table II: second-order feature interactions over sparse
// (user, item, item-KG-entity) features, trained pairwise with BPR.
//
// For a binary feature set S the FM score uses the standard identity
//
//	ŷ(S) = w₀ + Σ_{f∈S} w_f + ½ ( ‖Σ_{f∈S} v_f‖² − Σ_{f∈S} ‖v_f‖² )
//
// which the training graph evaluates with embedding gathers and
// segment sums, so examples with different feature counts batch
// together.
package fm

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

// Model is an FM ranker over user/item/KG-entity features.
type Model struct {
	feats *shared.Features
	w     *autograd.Param // F×1 linear weights
	v     *autograd.Param // F×d pairwise factors
	dim   int
	nIt   int

	// Per-item inference caches built after training.
	itemVSum   *tensor.Dense // items×d: Σ v_f over item+attr features
	itemVSqSum *tensor.Dense // items×d: Σ v_f² (element-wise squares)
	itemWSum   []float64     // items: Σ w_f
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained model.
func New() *Model { return &Model{} }

// Name implements models.Trainer.
func (m *Model) Name() string { return "FM" }

// batchNodes assembles the score node for a batch of (user, item)
// examples given per-example feature lists flattened into feats with
// segment boundaries seg (example index per feature).
func (m *Model) batchNodes(tp *autograd.Tape, w, v *autograd.Node,
	users, items []int) *autograd.Node {
	var flat []int
	seg := make([]int, 0, len(users)*4)
	for ex := range users {
		start := len(flat)
		flat = m.feats.Pair(flat, users[ex], items[ex])
		for i := start; i < len(flat); i++ {
			seg = append(seg, ex)
		}
	}
	b := len(users)
	vf := tp.Gather(v, flat)                      // nFeat×d
	sumV := tp.SegmentSumRows(vf, seg, b)         // B×d
	sqNorm := tp.RowSumSq(sumV)                   // B×1  ‖Σv‖²
	perFeatSq := tp.RowSumSq(vf)                  // nFeat×1
	sumSq := tp.SegmentSumRows(perFeatSq, seg, b) // B×1  Σ‖v‖²
	pairwise := tp.Scale(tp.Sub(sqNorm, sumSq), 0.5)
	wf := tp.Gather(w, flat)
	linear := tp.SegmentSumRows(wf, seg, b)
	return tp.Add(linear, pairwise)
}

// Train implements models.Trainer: BPR over (positive, sampled
// negative) pairs on the shared engine.
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("fm")
	m.feats = shared.BuildFeatures(d)
	m.dim = cfg.EmbedDim
	m.nIt = d.NumItems
	m.w = autograd.NewParam("fm.w", m.feats.NumFeatures, 1)
	m.v = shared.NewEmbedding("fm.v", m.feats.NumFeatures, cfg.EmbedDim, g.Split("v"))
	optim.NormalInit(m.w, g.Split("w"), 0.01)
	params := []*autograd.Param{m.w, m.v}
	err := shared.Train(ctx, d, cfg, shared.Spec{
		Label:  "fm",
		Params: params,
		Opt:    optim.NewAdam(params, cfg.LR, 0),
		Base:   g.Split("engine"),
		Neg:    d.NewNegSampler(cfg.Seed),
		Loss: func(tp *autograd.Tape, bc *shared.BatchCtx, users, pos, negs []int) *autograd.Node {
			w := bc.Leaf(tp, m.w)
			v := bc.Leaf(tp, m.v)
			posScore := m.batchNodes(tp, w, v, users, pos)
			negScore := m.batchNodes(tp, w, v, users, negs)
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

// buildInferenceCache precomputes the per-item feature aggregates so
// ScoreItems is a cheap per-user sweep.
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

// ScoreItems implements eval.Scorer. For user u and item i the feature
// set is {u} ∪ itemFeats(i), so
//
//	ŷ = w_u + Σw_f + ½(‖e_u + s_i‖² − (‖e_u‖² + q_i))
//
// with s_i and q_i the cached per-item sums.
func (m *Model) ScoreItems(user int, out []float64) {
	uf := m.feats.UserFeature(user)
	eu := m.v.Value.Row(uf)
	var euSq float64
	for _, x := range eu {
		euSq += x * x
	}
	wu := m.w.Value.Data[uf]
	for i := 0; i < m.nIt; i++ {
		s := m.itemVSum.Row(i)
		q := m.itemVSqSum.Row(i)
		var normSq, qSum float64
		for j := range s {
			t := eu[j] + s[j]
			normSq += t * t
			qSum += q[j]
		}
		out[i] = wu + m.itemWSum[i] + 0.5*(normSq-(euSq+qSum))
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nIt }
