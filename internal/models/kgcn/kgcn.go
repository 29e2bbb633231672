// Package kgcn implements the Knowledge Graph Convolutional Network
// baseline (Wang et al. 2019) of Table II: for each candidate item, a
// fixed-size sampled neighborhood of the item KG is aggregated layer by
// layer, with neighbors weighted by a user-specific relation score
// g(u, r) = <e_u, e_r> normalized with a softmax — so the same item is
// seen differently by users with different relation preferences.
package kgcn

import (
	"context"
	"math"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/models/shared"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Model is a KGCN recommender.
type Model struct {
	user *autograd.Param   // users×d
	ent  *autograd.Param   // entities×d
	rel  *autograd.Param   // relations×d
	w    []*autograd.Param // per layer, d×d (sum aggregator)
	b    []*autograd.Param // per layer, 1×d

	layers    int
	sample    int
	dim       int
	nItems    int
	itemEnt   []int
	neighbors [][]int // per entity: sample neighbor entity IDs
	neighRels [][]int // per entity: matching relation IDs

	// User-independent inference caches built after training: the item
	// frontier expansion and the raw gathered embeddings per depth.
	evalFrontiers [][]int
	evalRels      [][]int
	evalRaw       []*tensor.Dense
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained KGCN with 2 layers and a sampled
// neighborhood of 8 (grid-searched on the synthetic facilities, the
// same per-model tuning the paper applies in §VI-D).
func New() *Model { return &Model{layers: 2, sample: 8} }

// Name implements models.Trainer.
func (m *Model) Name() string { return "KGCN" }

// buildNeighborhoods samples the fixed-size receptive field over the
// item KG through the shared degree-capped sampler (user entities
// excluded, so convolution stays on knowledge). The sampler scans
// candidates in the frozen CSR's edge order and spends one rng draw per
// sampled slot — the same draw sequence as the historical private loop,
// so trained scores are bit-identical.
func (m *Model) buildNeighborhoods(d *dataset.Dataset, g *rng.RNG) {
	isUser := make([]bool, d.Graph.NumEntities())
	for _, e := range d.UserEnt {
		isUser[e] = true
	}
	sampler := graph.NewSampler(d.CSR(), isUser)
	n := d.Graph.NumEntities()
	m.neighbors = make([][]int, n)
	m.neighRels = make([][]int, n)
	for e := 0; e < n; e++ {
		m.neighbors[e] = make([]int, m.sample)
		m.neighRels[e] = make([]int, m.sample)
		if !sampler.SampleNeighbors(e, m.sample, g, m.neighRels[e], m.neighbors[e]) {
			// Isolated entity (or user-only neighborhood): self-loops
			// with relation 0.
			for s := 0; s < m.sample; s++ {
				m.neighbors[e][s] = e
				m.neighRels[e][s] = 0
			}
		}
	}
}

// receptive expands the per-example entity frontier one hop: for each
// entity in cur, append its sampled neighbors.
func (m *Model) receptive(cur []int) (ents, rels []int) {
	ents = make([]int, 0, len(cur)*m.sample)
	rels = make([]int, 0, len(cur)*m.sample)
	for _, e := range cur {
		ents = append(ents, m.neighbors[e]...)
		rels = append(rels, m.neighRels[e]...)
	}
	return
}

// forward builds the tape computation of final item representations for
// a batch of (user, item) pairs and returns the B×1 score node.
func (m *Model) forward(tp *autograd.Tape, bc *shared.BatchCtx, users, items []int) *autograd.Node {
	userN := bc.Leaf(tp, m.user)
	entN := bc.Leaf(tp, m.ent)
	relN := bc.Leaf(tp, m.rel)
	b := len(items)

	// Entity frontiers per depth: depth 0 = items, depth h = S^h per example.
	frontiers := make([][]int, m.layers+1)
	relsAt := make([][]int, m.layers+1) // relations leading INTO depth h (h>=1)
	frontiers[0] = make([]int, b)
	for i, it := range items {
		frontiers[0][i] = m.itemEnt[it]
	}
	for h := 1; h <= m.layers; h++ {
		frontiers[h], relsAt[h] = m.receptive(frontiers[h-1])
	}

	// User embeddings for scoring relations: one row per frontier entry.
	uEmb := tp.Gather(userN, users) // B×d

	// Representations at the deepest frontier are raw embeddings; then
	// collapse one depth per iteration.
	reps := make([]*autograd.Node, m.layers+1)
	for h := 0; h <= m.layers; h++ {
		reps[h] = tp.Gather(entN, frontiers[h])
	}
	for h := m.layers; h >= 1; h-- {
		// Attention: g(u, r) over each edge into depth h, softmax over
		// each group of `sample` siblings.
		nEdges := len(frontiers[h])
		userIdx := make([]int, nEdges)
		per := nEdges / b // = sample^h
		for i := 0; i < nEdges; i++ {
			userIdx[i] = users[i/per]
		}
		uRows := tp.Gather(userN, userIdx)  // E×d
		rRows := tp.Gather(relN, relsAt[h]) // E×d
		scores := tp.RowDot(uRows, rRows)   // E×1
		segOff := make([]int, nEdges/m.sample+1)
		for i := range segOff {
			segOff[i] = i * m.sample
		}
		att := tp.SegmentSoftmax(scores, segOff)
		weighted := tp.MulColVec(reps[h], att)
		seg := make([]int, nEdges)
		for i := range seg {
			seg[i] = i / m.sample
		}
		aggN := tp.SegmentSumRows(weighted, seg, len(frontiers[h-1]))
		// Sum aggregator: ReLU(W (self + agg) + b).
		mixed := tp.Add(reps[h-1], aggN)
		reps[h-1] = tp.ReLU(tp.AddRowVec(tp.MatMulT(mixed, bc.Leaf(tp, m.w[h-1])),
			bc.Leaf(tp, m.b[h-1])))
	}
	return tp.RowDot(uEmb, reps[0])
}

// Train implements models.Trainer: BPR with Adam on the shared engine.
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("kgcn")
	m.dim = cfg.EmbedDim
	m.nItems = d.NumItems
	m.itemEnt = d.ItemEnt
	m.buildNeighborhoods(d, g.Split("nbr"))
	m.user = shared.NewEmbedding("kgcn.user", d.NumUsers, cfg.EmbedDim, g.Split("u"))
	m.ent = shared.NewEmbedding("kgcn.ent", d.Graph.NumEntities(), cfg.EmbedDim, g.Split("e"))
	m.rel = shared.NewEmbedding("kgcn.rel", d.Graph.NumRelations(), cfg.EmbedDim, g.Split("r"))
	params := []*autograd.Param{m.user, m.ent, m.rel}
	m.w = nil
	m.b = nil
	for l := 0; l < m.layers; l++ {
		w := shared.NewEmbedding("kgcn.w", cfg.EmbedDim, cfg.EmbedDim, g.Split("w"))
		bb := autograd.NewParam("kgcn.b", 1, cfg.EmbedDim)
		m.w = append(m.w, w)
		m.b = append(m.b, bb)
		params = append(params, w, bb)
	}
	err := shared.Train(ctx, d, cfg, shared.Spec{
		Label:  "kgcn",
		Params: params,
		Opt:    optim.NewAdam(params, cfg.LR, 0),
		Base:   g.Split("engine"),
		Neg:    d.NewNegSampler(cfg.Seed),
		Loss: func(tp *autograd.Tape, bc *shared.BatchCtx, users, pos, negs []int) *autograd.Node {
			posScore := m.forward(tp, bc, users, pos)
			negScore := m.forward(tp, bc, users, negs)
			loss := shared.BPRLoss(tp, posScore, negScore)
			return tp.Add(loss, shared.L2Reg(tp, cfg.L2,
				tp.Gather(bc.Leaf(tp, m.user), users)))
		},
	})
	if err != nil {
		return err
	}
	m.buildEvalCache()
	return nil
}

// buildEvalCache precomputes the user-independent parts of inference:
// the full-catalog frontier expansion and its raw embeddings.
func (m *Model) buildEvalCache() {
	m.evalFrontiers = make([][]int, m.layers+1)
	m.evalRels = make([][]int, m.layers+1)
	m.evalFrontiers[0] = make([]int, m.nItems)
	for i := 0; i < m.nItems; i++ {
		m.evalFrontiers[0][i] = m.itemEnt[i]
	}
	for h := 1; h <= m.layers; h++ {
		m.evalFrontiers[h], m.evalRels[h] = m.receptive(m.evalFrontiers[h-1])
	}
	m.evalRaw = make([]*tensor.Dense, m.layers+1)
	for h := 0; h <= m.layers; h++ {
		m.evalRaw[h] = tensor.New(len(m.evalFrontiers[h]), m.dim)
		tensor.Gather(m.evalRaw[h], m.ent.Value, m.evalFrontiers[h])
	}
}

// ScoreItems implements eval.Scorer using a plain (tape-free) forward
// pass per user over every item at once.
func (m *Model) ScoreItems(user int, out []float64) {
	u := m.user.Value.Row(user)
	// Per-user relation attention is shared across items: precompute
	// softmax numerator inputs g(u,r) per relation.
	nRel := m.rel.Value.Rows
	gUR := make([]float64, nRel)
	for r := 0; r < nRel; r++ {
		rr := m.rel.Value.Row(r)
		var s float64
		for j := range u {
			s += u[j] * rr[j]
		}
		gUR[r] = s
	}
	frontiers, relsAt := m.evalFrontiers, m.evalRels
	// reps starts as the shared read-only raw embeddings; collapsed
	// levels are replaced with per-call buffers, keeping ScoreItems
	// safe under concurrent evaluation.
	reps := make([]*tensor.Dense, m.layers+1)
	copy(reps, m.evalRaw)
	for h := m.layers; h >= 1; h-- {
		n := len(frontiers[h])
		agg := tensor.New(len(frontiers[h-1]), m.dim)
		for grp := 0; grp < n/m.sample; grp++ {
			// Softmax over the group's relations.
			var mx float64 = math.Inf(-1)
			base := grp * m.sample
			for s := 0; s < m.sample; s++ {
				if v := gUR[relsAt[h][base+s]]; v > mx {
					mx = v
				}
			}
			var z float64
			ws := make([]float64, m.sample)
			for s := 0; s < m.sample; s++ {
				ws[s] = math.Exp(gUR[relsAt[h][base+s]] - mx)
				z += ws[s]
			}
			ar := agg.Row(grp)
			for s := 0; s < m.sample; s++ {
				w := ws[s] / z
				nr := reps[h].Row(base + s)
				for j := range ar {
					ar[j] += w * nr[j]
				}
			}
		}
		mixed := tensor.New(agg.Rows, m.dim)
		tensor.Add(mixed, reps[h-1], agg)
		next := tensor.New(agg.Rows, m.dim)
		tensor.MatMulT(next, mixed, m.w[h-1].Value)
		for i := 0; i < next.Rows; i++ {
			r := next.Row(i)
			for j := range r {
				x := r[j] + m.b[h-1].Value.Data[j]
				if x < 0 {
					x = 0
				}
				r[j] = x
			}
		}
		reps[h-1] = next
	}
	for i := 0; i < m.nItems; i++ {
		r := reps[0].Row(i)
		var s float64
		for j := range u {
			s += u[j] * r[j]
		}
		out[i] = s
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nItems }

// NewWithOptions returns an untrained KGCN with a custom depth and
// neighborhood sample size.
func NewWithOptions(layers, sample int) *Model {
	return &Model{layers: layers, sample: sample}
}
