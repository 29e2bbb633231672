// Package ripplenet implements the RippleNet baseline (Wang et al.
// 2018) of Table II: user preferences propagate outward through
// "ripple sets" — fixed-size samples of KG triples seeded by the user's
// interaction history. For candidate item v and hop-k ripple entries
// (h_i, r_i, t_i):
//
//	p_i = softmax_i( vᵀ R_{r_i} h_i )        (per-entry relevance)
//	o_k = Σ_i p_i t_i                         (hop-k preference)
//	ŷ(u, v) = vᵀ (o_1 + ... + o_H)
//
// Following §VI-D, the embedding size is 16 (RippleNet's computational
// complexity) and the number of hops is 2.
package ripplenet

import (
	"context"
	"math"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/kg"
	"repro/internal/models"
	"repro/internal/models/shared"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Model is a RippleNet recommender.
type Model struct {
	ent  *autograd.Param   // entities×d
	relM []*autograd.Param // per relation: d×d transform

	hops    int
	setLen  int
	dim     int
	nItems  int
	itemEnt []int

	// Per-user ripple sets: [user][hop] -> flattened (head, rel, tail)
	// index triples of length setLen.
	rippleH, rippleR, rippleT [][][]int
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained RippleNet with 2 hops (§VI-D: n_hop=2) and
// ripple sets of 32 entries.
func New() *Model { return &Model{hops: 2, setLen: 32} }

// Name implements models.Trainer.
func (m *Model) Name() string { return "RippleNet" }

// buildRippleSets samples each user's per-hop ripple sets over the item
// KG (user entities excluded so ripples stay on knowledge edges). Edge
// draws go through the shared CSR sampler — exactly one rng draw per
// attempted edge, with the user-entity rejection kept here — replaying
// the historical private loop's draw sequence bit-for-bit.
func (m *Model) buildRippleSets(d *dataset.Dataset, g *rng.RNG) {
	isUser := make([]bool, d.Graph.NumEntities())
	for _, e := range d.UserEnt {
		isUser[e] = true
	}
	sampler := graph.NewSampler(d.CSR(), isUser)
	nU := d.NumUsers
	m.rippleH = make([][][]int, nU)
	m.rippleR = make([][][]int, nU)
	m.rippleT = make([][][]int, nU)
	for u := 0; u < nU; u++ {
		seeds := make([]int, 0, len(d.TrainByUser[u]))
		for _, it := range d.TrainByUser[u] {
			seeds = append(seeds, d.ItemEnt[it])
		}
		m.rippleH[u] = make([][]int, m.hops)
		m.rippleR[u] = make([][]int, m.hops)
		m.rippleT[u] = make([][]int, m.hops)
		for h := 0; h < m.hops; h++ {
			heads := make([]int, m.setLen)
			rels := make([]int, m.setLen)
			tails := make([]int, m.setLen)
			next := make([]int, 0, m.setLen)
			for s := 0; s < m.setLen; s++ {
				if len(seeds) == 0 {
					// No history: degenerate self-ripple on entity 0.
					heads[s], rels[s], tails[s] = 0, 0, 0
					continue
				}
				// Draw a seed, then one of its non-user edges.
				var tr kg.Triple
				found := false
				for try := 0; try < 8 && !found; try++ {
					seed := seeds[g.Intn(len(seeds))]
					rel, tail, ok := sampler.SampleEdge(seed, g)
					if !ok || sampler.Excluded(tail) {
						continue
					}
					tr = kg.Triple{Head: seed, Rel: rel, Tail: tail}
					found = true
				}
				if !found {
					seed := seeds[g.Intn(len(seeds))]
					tr = kg.Triple{Head: seed, Rel: 0, Tail: seed}
				}
				heads[s], rels[s], tails[s] = tr.Head, tr.Rel, tr.Tail
				next = append(next, tr.Tail)
			}
			m.rippleH[u][h] = heads
			m.rippleR[u][h] = rels
			m.rippleT[u][h] = tails
			if len(next) > 0 {
				seeds = next
			}
		}
	}
}

// batchRipples flattens the batch users' hop-h ripple sets.
func (m *Model) batchRipples(users []int, h int) (heads, rels, tails []int) {
	n := len(users) * m.setLen
	heads = make([]int, 0, n)
	rels = make([]int, 0, n)
	tails = make([]int, 0, n)
	for _, u := range users {
		heads = append(heads, m.rippleH[u][h]...)
		rels = append(rels, m.rippleR[u][h]...)
		tails = append(tails, m.rippleT[u][h]...)
	}
	return
}

// transformHeads computes R_{r_i} h_i for a flattened entry list,
// grouping by relation so each group shares one d×d product.
func (m *Model) transformHeads(tp *autograd.Tape, bc *shared.BatchCtx,
	ent *autograd.Node, heads, rels []int) *autograd.Node {
	groups := shared.GroupByRelation(rels)
	var scattered *autograd.Node
	for _, r := range groups.Rels {
		idx := groups.Idx[r]
		hEmb := tp.Gather(ent, groups.Select(r, heads))
		rh := tp.MatMulT(hEmb, bc.Leaf(tp, m.relM[r])) // n_r×d
		sc := tp.Scatter(rh, idx, len(heads))
		if scattered == nil {
			scattered = sc
		} else {
			scattered = tp.Add(scattered, sc)
		}
	}
	return scattered
}

// scores builds ŷ(u, item) for the batch, reusing the shared Rh nodes.
func (m *Model) scores(tp *autograd.Tape, ent *autograd.Node, users, items []int,
	rh []*autograd.Node, tails [][]int) *autograd.Node {
	b := len(users)
	vIdx := make([]int, b)
	for i, it := range items {
		vIdx[i] = m.itemEnt[it]
	}
	v := tp.Gather(ent, vIdx) // B×d
	// Per-entry expansion of the item embedding.
	entryItem := make([]int, b*m.setLen)
	seg := make([]int, b*m.setLen)
	segOff := make([]int, b+1)
	for i := range entryItem {
		entryItem[i] = vIdx[i/m.setLen]
		seg[i] = i / m.setLen
	}
	for i := range segOff {
		segOff[i] = i * m.setLen
	}
	var total *autograd.Node
	for h := 0; h < m.hops; h++ {
		vEntries := tp.Gather(ent, entryItem)
		p := tp.SegmentSoftmax(tp.RowDot(rh[h], vEntries), segOff)
		tEmb := tp.Gather(ent, tails[h])
		o := tp.SegmentSumRows(tp.MulColVec(tEmb, p), seg, b)
		s := tp.RowDot(v, o)
		if total == nil {
			total = s
		} else {
			total = tp.Add(total, s)
		}
	}
	return total
}

// Train implements models.Trainer: BPR with Adam on the shared engine.
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("ripplenet")
	m.dim = 16 // §VI-D: RippleNet embedding size fixed at 16
	m.nItems = d.NumItems
	m.itemEnt = d.ItemEnt
	m.buildRippleSets(d, g.Split("ripple"))
	m.ent = shared.NewEmbedding("ripple.ent", d.Graph.NumEntities(), m.dim, g.Split("e"))
	params := []*autograd.Param{m.ent}
	m.relM = nil
	for r := 0; r < d.Graph.NumRelations(); r++ {
		w := shared.NewEmbedding("ripple.rel", m.dim, m.dim, g.Split("r"))
		m.relM = append(m.relM, w)
		params = append(params, w)
	}
	return shared.Train(ctx, d, cfg, shared.Spec{
		Label:  "ripplenet",
		Params: params,
		Opt:    optim.NewAdam(params, cfg.LR, 0),
		Base:   g.Split("engine"),
		Neg:    d.NewNegSampler(cfg.Seed),
		Loss: func(tp *autograd.Tape, bc *shared.BatchCtx, users, pos, negs []int) *autograd.Node {
			ent := bc.Leaf(tp, m.ent)
			rh := make([]*autograd.Node, m.hops)
			tails := make([][]int, m.hops)
			for h := 0; h < m.hops; h++ {
				heads, rels, tl := m.batchRipples(users, h)
				rh[h] = m.transformHeads(tp, bc, ent, heads, rels)
				tails[h] = tl
			}
			posScore := m.scores(tp, ent, users, pos, rh, tails)
			negScore := m.scores(tp, ent, users, negs, rh, tails)
			loss := shared.BPRLoss(tp, posScore, negScore)
			return tp.Add(loss, shared.L2Reg(tp, cfg.L2, rh[0]))
		},
	})
}

// ScoreItems implements eval.Scorer: for one user, score every item
// with two dense products per hop.
func (m *Model) ScoreItems(user int, out []float64) {
	// Gather item embeddings V (n×d).
	V := tensor.New(m.nItems, m.dim)
	tensor.Gather(V, m.ent.Value, m.itemEnt)
	total := tensor.New(m.nItems, m.dim)
	for h := 0; h < m.hops; h++ {
		heads := m.rippleH[user][h]
		rels := m.rippleR[user][h]
		tails := m.rippleT[user][h]
		// Rh (M×d) and tails T (M×d).
		Rh := tensor.New(m.setLen, m.dim)
		for s := 0; s < m.setLen; s++ {
			hRow := m.ent.Value.Row(heads[s])
			w := m.relM[rels[s]].Value
			dst := Rh.Row(s)
			for i := 0; i < m.dim; i++ {
				wr := w.Row(i)
				var acc float64
				for j := 0; j < m.dim; j++ {
					acc += wr[j] * hRow[j]
				}
				dst[i] = acc
			}
		}
		T := tensor.New(m.setLen, m.dim)
		tensor.Gather(T, m.ent.Value, tails)
		// S = V·Rhᵀ (n×M), row-softmax, O = P·T.
		S := tensor.New(m.nItems, m.setLen)
		tensor.MatMulT(S, V, Rh)
		for i := 0; i < m.nItems; i++ {
			row := S.Row(i)
			mx := math.Inf(-1)
			for _, x := range row {
				if x > mx {
					mx = x
				}
			}
			var z float64
			for j, x := range row {
				e := math.Exp(x - mx)
				row[j] = e
				z += e
			}
			inv := 1 / z
			for j := range row {
				row[j] *= inv
			}
		}
		O := tensor.New(m.nItems, m.dim)
		tensor.MatMul(O, S, T)
		tensor.AddInto(total, O)
	}
	for i := 0; i < m.nItems; i++ {
		v := V.Row(i)
		o := total.Row(i)
		var s float64
		for j := range v {
			s += v[j] * o[j]
		}
		out[i] = s
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nItems }
