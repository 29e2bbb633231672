// Package core implements the paper's primary contribution: the
// Collaborative Knowledge-aware graph ATtention network (CKAT, §V).
//
// The model has three components:
//
//  1. An embedding layer that learns structured representations of the
//     collaborative knowledge graph with TransR (Eq. 1), trained with
//     the margin-based objective L1 (Eq. 2).
//  2. A knowledge-aware attentive embedding propagation layer (Eq. 3-9)
//     that refines every entity representation by aggregating messages
//     from its CKG neighborhood, weighted by the relational attention
//     fa(h,r,t) = (W_r e_t)ᵀ tanh(W_r e_h + e_r) (Eq. 4) normalized
//     with a per-neighborhood softmax (Eq. 5). Layers stack (Eq. 8-9)
//     with either the concatenate (Eq. 6) or sum (Eq. 7) aggregator.
//  3. A prediction layer concatenating each node's per-layer
//     representations (Eq. 10) and scoring user–item pairs with an
//     inner product (Eq. 11).
//
// The objective L = L1 + L2 + λ‖Θ‖² (Eq. 13) combines the TransR loss
// with the BPR pairwise ranking loss (Eq. 12). Training alternates the
// two phases each epoch (the standard optimization for this family),
// recomputing the attention coefficients from the embedding layer
// between phases.
//
// Both phases run on the shared round-parallel engine
// (internal/models/shared): with TrainConfig.Workers > 1, TransR steps
// and BPR batches each fan out across a bounded worker pool with
// sharded gradient accumulation, and the attention recomputation shards
// its per-edge scoring over head entities. Workers <= 1 reproduces the
// historical sequential results bit-for-bit.
package core

import (
	"context"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/models/shared"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Aggregator selects how self and neighborhood representations combine
// in each propagation layer.
type Aggregator string

// The two aggregators evaluated in Table IV.
const (
	AggConcat Aggregator = "concat" // Eq. 6 (the default, best in Table IV)
	AggSum    Aggregator = "sum"    // Eq. 7
)

// Options are the CKAT-specific hyperparameters (§VI-D defaults).
type Options struct {
	// Layers lists the hidden dimension of each propagation layer;
	// §VI-D: depth 3 with hidden dimensions 64, 32, 16.
	Layers []int
	// Aggregator is concat (default) or sum.
	Aggregator Aggregator
	// UseAttention enables the knowledge-aware attention (Eq. 4-5);
	// when false, neighbors are weighted uniformly (the Table IV "w/o
	// Att" ablation).
	UseAttention bool
	// Margin is the TransR margin γ of Eq. 2.
	Margin float64
	// KGSteps is the number of TransR mini-batch steps per epoch.
	KGSteps int
	// KGBatch is the TransR batch size.
	KGBatch int
	// SkipKGPhase disables the TransR embedding-layer training (the L1
	// term of Eq. 13). Ablation only: attention scores then come from
	// embeddings shaped solely by the BPR signal.
	SkipKGPhase bool
	// ParallelAttention shards the per-edge attention scoring over head
	// entities across the worker pool (§VII names CKAT parallelization
	// as future work; this implements the edge-parallel part). The
	// scores are bit-identical for any worker count.
	ParallelAttention bool
}

// DefaultOptions returns the paper's best configuration.
func DefaultOptions() Options {
	return Options{
		Layers:            []int{64, 32, 16},
		Aggregator:        AggConcat,
		UseAttention:      true,
		Margin:            1.0,
		KGSteps:           20,
		KGBatch:           1024,
		ParallelAttention: true,
	}
}

// Model is the CKAT recommender.
type Model struct {
	opts   Options
	transr *shared.TransR    // embedding layer (entities, relations, projections)
	w      []*autograd.Param // per propagation layer: d_l × (2·d_{l-1}) or d_l × d_{l-1}

	csr     *graph.CSR
	attMu   sync.Mutex    // serializes concurrent RecomputeAttention calls
	att     *tensor.Dense // E×1 attention coefficients (recomputed per epoch)
	nEnt    int
	dim     int
	nItems  int
	userEnt []int
	itemEnt []int
	workers int // training worker count, reused by computeAttention

	final *tensor.Dense // N×D final representations (built after training)
}

var _ models.Trainer = (*Model)(nil)

// New returns an untrained CKAT with opts.
func New(opts Options) *Model { return &Model{opts: opts} }

// NewDefault returns an untrained CKAT with the paper's defaults.
func NewDefault() *Model { return New(DefaultOptions()) }

// Name implements models.Trainer.
func (m *Model) Name() string { return "CKAT" }

// computeAttention recomputes the per-edge attention coefficients from
// the current embedding layer (Eq. 4-5). Without attention, every
// neighborhood is weighted uniformly.
//
// Edges are scored per head entity: for head h with relation-r edges,
// W_r e_h is projected once and reused across the neighborhood, and
// each edge adds one W_r e_t projection — O(E·k·d) total instead of the
// dense O(R·N·k·d) all-entities projection, and embarrassingly parallel
// over heads. Each edge's score is a plain ascending-index dot chain,
// so the result is bit-identical for any worker count and to the dense
// formulation.
func (m *Model) computeAttention() {
	e := m.csr.NumEdges()
	m.att = tensor.New(e, 1)
	if !m.opts.UseAttention {
		for h := 0; h < m.nEnt; h++ {
			lo, hi := m.csr.Neighbors(h)
			if hi == lo {
				continue
			}
			w := 1 / float64(hi-lo)
			for i := lo; i < hi; i++ {
				m.att.Data[i] = w
			}
		}
		return
	}
	k := m.transr.Rel.Value.Cols
	d := m.transr.Ent.Value.Cols
	nRel := len(m.transr.Proj)
	raw := tensor.New(e, 1)
	edgeRels, edgeTails := m.csr.Rels(), m.csr.Tails()
	scoreHeads := func(lo, hi int) {
		// Per-worker scratch: cached head projections per relation.
		ph := make([]float64, nRel*k)
		have := make([]bool, nRel)
		for h := lo; h < hi; h++ {
			elo, ehi := m.csr.Neighbors(h)
			if elo == ehi {
				continue
			}
			for r := range have {
				have[r] = false
			}
			eh := m.transr.Ent.Value.Row(h)
			for i := elo; i < ehi; i++ {
				r := edgeRels[i]
				w := m.transr.Proj[r].Value
				phr := ph[r*k : (r+1)*k]
				if !have[r] {
					for j := 0; j < k; j++ {
						wr := w.Row(j)
						var s float64
						for t := 0; t < d; t++ {
							s += wr[t] * eh[t]
						}
						phr[j] = s
					}
					have[r] = true
				}
				et := m.transr.Ent.Value.Row(edgeTails[i])
				er := m.transr.Rel.Value.Row(r)
				var s float64
				for j := 0; j < k; j++ {
					wr := w.Row(j)
					var pt float64
					for t := 0; t < d; t++ {
						pt += wr[t] * et[t]
					}
					s += pt * math.Tanh(phr[j]+er[j])
				}
				raw.Data[i] = s
			}
		}
	}
	workers := 1
	if m.opts.ParallelAttention {
		workers = m.workers
		if workers <= 1 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if workers <= 1 {
		scoreHeads(0, m.nEnt)
	} else {
		_ = parallel.New(workers).RunChunks(context.Background(), m.nEnt,
			func(_, lo, hi int) { scoreHeads(lo, hi) })
	}
	tensor.SegmentSoftmax(m.att, raw, m.csr.Offsets())
}

// propagate builds the propagation layers on a tape and returns the
// final concatenated representation node (Eq. 10). ent must be the
// embedding-layer node (leaf for training, const for inference);
// resolve, when non-nil, maps the layer parameters to their per-shard
// gradient sinks.
func (m *Model) propagate(tp *autograd.Tape, ent *autograd.Node,
	resolve func(*autograd.Param) *autograd.Param,
	dropout float64, g *rng.RNG) *autograd.Node {
	attNode := tp.Const(m.att)
	final := ent
	cur := ent
	for l := range m.opts.Layers {
		tails := tp.Gather(cur, m.csr.Tails())   // E×d
		weighted := tp.MulColVec(tails, attNode) // Eq. 3/9
		agg := tp.SegmentSumRows(weighted, m.csr.Heads(), m.nEnt)
		var mixed *autograd.Node
		if m.opts.Aggregator == AggSum {
			mixed = tp.Add(cur, agg) // Eq. 7
		} else {
			mixed = tp.ConcatCols(cur, agg) // Eq. 6
		}
		wl := m.w[l]
		if resolve != nil {
			wl = resolve(wl)
		}
		out := tp.LeakyReLU(tp.MatMulT(mixed, tp.Leaf(wl)), 0.2)
		if dropout > 0 {
			out = tp.Dropout(out, dropout, g)
		}
		out = tp.L2NormalizeRows(out)
		final = tp.ConcatCols(final, out)
		cur = out
	}
	return final
}

// Train implements models.Trainer. Per epoch: (1) KGSteps TransR
// updates on sampled triples, (2) attention recomputation, (3) BPR
// updates with full-graph attentive propagation. With cfg.Workers > 1
// phases (1) and (3) run in synchronous rounds on the shared engine.
// On cancellation the model is left partially trained with no final
// representations; the error is ctx.Err().
func (m *Model) Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig) error {
	g := rng.New(cfg.Seed).Split("ckat")
	m.dim = cfg.EmbedDim
	m.nEnt = d.Graph.NumEntities()
	m.nItems = d.NumItems
	m.userEnt = d.UserEnt
	m.itemEnt = d.ItemEnt
	m.csr = d.CSR()
	m.transr = shared.NewTransR(m.nEnt, d.Graph.NumRelations(),
		cfg.EmbedDim, cfg.EmbedDim, g.Split("transr"))
	m.w = nil
	inDim := cfg.EmbedDim
	cfParams := []*autograd.Param{m.transr.Ent}
	for l, outDim := range m.opts.Layers {
		width := inDim
		if m.opts.Aggregator != AggSum {
			width = 2 * inDim
		}
		w := shared.NewEmbedding("ckat.w", outDim, width, g.Split("w"))
		m.w = append(m.w, w)
		cfParams = append(cfParams, w)
		inDim = outDim
		_ = l
	}
	optKG := optim.NewAdam(m.transr.Params(), cfg.LR, 0)
	optCF := optim.NewAdam(cfParams, cfg.LR, 0)
	kgSampler := shared.NewKGSampler(d.Graph, g.Split("kgneg"))
	neg := d.NewNegSampler(cfg.Seed)
	drop := g.Split("dropout")
	base := g.Split("engine")

	m.workers = cfg.EffectiveWorkers()
	// Checkpointed training forces the counter-split RNG discipline at
	// any worker count (see the shared engine): all randomness derives
	// from (epoch, step), so resume needs no RNG state.
	counter := m.workers > 1 || cfg.Checkpoint != nil
	allParams := append(append([]*autograd.Param{}, m.transr.Params()...), m.w...)
	sh := shared.NewShadows(allParams, m.workers)
	var pool *parallel.Pool
	if m.workers > 1 {
		pool = parallel.New(m.workers)
		optKG.Parallel(pool)
		optCF.Parallel(pool)
	}
	cp := shared.NewCheckpointer(cfg.Checkpoint, "ckat", cfg.Seed, allParams, optKG, optCF)
	startEpoch, err := cp.Resume()
	if err != nil {
		return err
	}
	if startEpoch > 0 {
		cfg.Log("ckat %s resumed from checkpoint at epoch %d/%d",
			d.Name, startEpoch, cfg.Epochs)
		if cfg.Logger != nil {
			cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "resumed from checkpoint",
				slog.String("model", "ckat"),
				slog.String("dataset", d.Name),
				slog.Int("epoch", startEpoch),
				slog.Int("epochs", cfg.Epochs),
			)
		}
	}
	// shardTransR views the embedding layer through shard s's gradient
	// sinks (identity for the sequential shard).
	shardTransR := func(s int) *shared.TransR {
		if s < 0 {
			return m.transr
		}
		v := &shared.TransR{
			Ent: sh.Resolve(s, m.transr.Ent),
			Rel: sh.Resolve(s, m.transr.Rel),
		}
		for _, p := range m.transr.Proj {
			v.Proj = append(v.Proj, sh.Resolve(s, p))
		}
		return v
	}

	kgSteps := m.opts.KGSteps
	if m.opts.SkipKGPhase {
		kgSteps = 0
	}
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochCtx, epochSpan := obs.StartSpan(ctx, "train.epoch")
		epochSpan.SetAttr("model", "ckat")
		epochSpan.SetAttrInt("epoch", epoch+1)
		start := time.Now()
		// --- Phase 1: embedding layer (TransR, L1) ---------------------
		var kgLoss float64
		_, kgSpan := obs.StartSpan(epochCtx, "train.phase.kg")
		err := shared.RunRounds(ctx, kgSteps, pool, sh,
			func(step, shard int) float64 {
				sampler := kgSampler
				if counter {
					sampler = shared.NewKGSampler(d.Graph,
						base.SplitIndexed("kgneg", int64(epoch), int64(step)))
				}
				h, r, tl, nt := sampler.Batch(m.opts.KGBatch)
				tp := autograd.NewTape()
				loss := shardTransR(shard).MarginLoss(tp, h, r, tl, nt, m.opts.Margin)
				tp.Backward(loss)
				return loss.Value.Data[0]
			},
			func(_ int, loss float64) {
				optKG.Step()
				kgLoss += loss
			})
		kgSpan.End()
		if err != nil {
			epochSpan.End()
			return err
		}

		// --- Phase 2: knowledge-aware attention (Eq. 4-5) --------------
		m.computeAttention()

		// --- Phase 3: attentive propagation + BPR (L2) -----------------
		var cfLoss float64
		pos := d.PosBatches(cfg.BatchSize, cfg.Seed+int64(epoch))
		_, cfSpan := obs.StartSpan(epochCtx, "train.phase.cf")
		err = shared.RunRounds(ctx, len(pos), pool, sh,
			func(b, shard int) float64 {
				users, ps := pos[b][0], pos[b][1]
				var negs []int
				dropRNG := drop
				var resolve func(*autograd.Param) *autograd.Param
				if counter {
					negs = d.NegSamplerFrom(
						base.SplitIndexed("neg", int64(epoch), int64(b))).Fill(users)
					dropRNG = base.SplitIndexed("dropout", int64(epoch), int64(b))
				} else {
					negs = neg.Fill(users)
				}
				if shard >= 0 {
					resolve = func(p *autograd.Param) *autograd.Param {
						return sh.Resolve(shard, p)
					}
				}
				tp := autograd.NewTape()
				ent := tp.Leaf(sh.Resolve(shard, m.transr.Ent))
				final := m.propagate(tp, ent, resolve, cfg.Dropout, dropRNG)
				u := tp.Gather(final, entIdx(m.userEnt, users))
				vp := tp.Gather(final, entIdx(m.itemEnt, ps))
				vn := tp.Gather(final, entIdx(m.itemEnt, negs))
				loss := shared.BPRLoss(tp, tp.RowDot(u, vp), tp.RowDot(u, vn)) // Eq. 12
				loss = tp.Add(loss, shared.L2Reg(tp, cfg.L2, u, vp, vn))       // λ‖Θ‖²
				tp.Backward(loss)
				return loss.Value.Data[0]
			},
			func(_ int, loss float64) {
				optCF.Step()
				cfLoss += loss
			})
		cfSpan.End()
		if err != nil {
			epochSpan.End()
			return err
		}
		kgDen := float64(kgSteps)
		if kgDen == 0 {
			kgDen = 1
		}
		elapsed := time.Since(start)

		// Checkpoint before reporting so the event carries the measured
		// checkpoint duration (same ordering as the shared engine).
		ckptStart := time.Now()
		if err := cp.AfterEpoch(epoch + 1); err != nil {
			epochSpan.End()
			return err
		}
		var ckptDur time.Duration
		if cp.Due(epoch + 1) {
			ckptDur = time.Since(ckptStart)
			_, ckptSpan := obs.StartSpan(epochCtx, "train.checkpoint")
			ckptSpan.SetAttrInt("epoch", epoch+1)
			ckptSpan.End()
		}

		cfg.Log("ckat %s epoch %d/%d kgLoss=%.4f cfLoss=%.4f", d.Name,
			epoch+1, cfg.Epochs, kgLoss/kgDen,
			cfLoss/float64(len(pos)))
		if cfg.Logger != nil {
			cfg.Logger.LogAttrs(epochCtx, slog.LevelInfo, "epoch complete",
				slog.String("model", "ckat"),
				slog.String("dataset", d.Name),
				slog.Int("epoch", epoch+1),
				slog.Int("epochs", cfg.Epochs),
				slog.Float64("kg_loss", kgLoss/kgDen),
				slog.Float64("cf_loss", cfLoss/float64(len(pos))),
				slog.Float64("duration_ms", float64(elapsed.Nanoseconds())/1e6),
			)
		}
		cfg.ReportProgress(models.ProgressEvent{
			Model: "ckat", Dataset: d.Name,
			Epoch: epoch + 1, Epochs: cfg.Epochs,
			Loss:               kgLoss/kgDen + cfLoss/float64(len(pos)),
			Duration:           elapsed,
			Samples:            len(d.Train) + kgSteps*m.opts.KGBatch,
			CheckpointDuration: ckptDur,
		})
		epochSpan.End()
	}

	// Final representations for inference (attention from the trained
	// embedding layer, no dropout).
	m.computeAttention()
	tp := autograd.NewTape()
	final := m.propagate(tp, tp.Const(m.transr.Ent.Value), nil, 0, nil)
	m.final = final.Value
	return nil
}

// entIdx maps user/item indices to entity IDs.
func entIdx(ents, idx []int) []int {
	out := make([]int, len(idx))
	for i, x := range idx {
		out[i] = ents[x]
	}
	return out
}

// ScoreItems implements eval.Scorer: ŷ(u, v) = e*_uᵀ e*_v (Eq. 11).
func (m *Model) ScoreItems(user int, out []float64) {
	u := m.final.Row(m.userEnt[user])
	for i := 0; i < m.nItems; i++ {
		v := m.final.Row(m.itemEnt[i])
		var s float64
		for j := range u {
			s += u[j] * v[j]
		}
		out[i] = s
	}
}

// NumItems implements eval.Scorer.
func (m *Model) NumItems() int { return m.nItems }

// NumUsers implements eval.VectorScorer.
func (m *Model) NumUsers() int { return len(m.userEnt) }

// UserVector implements eval.VectorScorer: e*_u, the row ScoreItems
// dots against every item. The slice aliases model state. Only valid
// after training.
func (m *Model) UserVector(u int) []float64 { return m.final.Row(m.userEnt[u]) }

// ItemVector implements eval.VectorScorer: e*_v for item i. The slice
// aliases model state. Only valid after training.
func (m *Model) ItemVector(i int) []float64 { return m.final.Row(m.itemEnt[i]) }

// Dim implements eval.VectorScorer: the final representation width.
func (m *Model) Dim() int { return m.final.Cols }

// FinalEmbedding returns the final representation of an arbitrary CKG
// entity (for diagnostics and the example applications). Only valid
// after training.
func (m *Model) FinalEmbedding(entity int) []float64 {
	return m.final.Row(entity)
}

// RecomputeAttention refreshes the per-edge attention coefficients from
// the current embedding layer (exposed for benchmarking the Table IV
// attention cost). Only valid after training. Concurrent calls are
// serialized; scoring reads only the final propagated embeddings, so it
// may proceed in parallel.
func (m *Model) RecomputeAttention() {
	m.attMu.Lock()
	defer m.attMu.Unlock()
	m.computeAttention()
}

// AttentionOn returns the current per-edge attention coefficients and
// the frozen graph whose edge order they index, for introspection
// (e.g. explaining which knowledge links drive a recommendation).
func (m *Model) AttentionOn() (*graph.CSR, *tensor.Dense) {
	return m.csr, m.att
}
