// engine.go implements the shared parallel training engine every model
// trains through: synchronous rounds of data-parallel mini-batches over
// a bounded worker pool, with sharded gradient accumulation and a
// deterministic merge order.
//
// # Execution model
//
// With cfg.Workers = W > 1, an epoch's batches run in rounds of W: the
// W batches of a round each build their loss tape concurrently against
// the SAME parameter snapshot, accumulating gradients into per-worker
// shadow parameter sets; after the round barrier the W gradients are
// applied as W optimizer steps in batch order. This is synchronous
// data-parallel SGD with one round of gradient staleness — the batch at
// round position i is computed from parameters that are i steps old —
// which is exactly the trade baked into every parallel BPR trainer; the
// point here is that the schedule is deterministic: for a fixed W the
// batch→shard assignment, the RNG streams, and the merge order never
// depend on goroutine scheduling, so two runs produce bit-identical
// parameters.
//
// With W <= 1 the engine degenerates to the historical sequential loop:
// batches run inline against the canonical parameters, consuming the
// same single RNG streams the pre-engine training loops consumed, so results
// are bit-for-bit identical to the sequential implementation.
//
// # RNG discipline
//
// Sequential mode uses the legacy streams (one negative-sampling stream
// and one stream per Spec.Streams entry, consumed across the whole
// run). Parallel mode derives an independent stream per (name, epoch,
// batch) from Spec.Base via rng.SplitIndexed, so draws depend only on
// the batch identity — not on which worker runs it or on W.
// Checkpointed training (cfg.Checkpoint != nil) uses the counter-split
// streams at every worker count, including W <= 1: with all randomness
// a pure function of (epoch, batch), checkpoints need no RNG state and
// a resumed run is bit-identical to an uninterrupted one.
package shared

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Shadows manages per-worker shadow parameter sets. A shadow shares its
// canonical parameter's Value tensor (parameters are read-only while a
// round's gradients are in flight) but owns a private Grad buffer, so
// concurrent Backward calls never race. Collect moves a shard's
// accumulated gradients onto the canonical parameters by swapping
// buffers — O(params), no copying — preserving the invariant that every
// buffer not currently holding fresh gradients is zero.
type Shadows struct {
	params []*autograd.Param
	index  map[*autograd.Param]int
	sets   [][]*autograd.Param // nil when workers <= 1
}

// NewShadows builds shadow sets for `workers` concurrent gradient
// computations over params. With workers <= 1 no shadows are allocated
// and Resolve returns the canonical parameters.
func NewShadows(params []*autograd.Param, workers int) *Shadows {
	s := &Shadows{params: params, index: make(map[*autograd.Param]int, len(params))}
	for i, p := range params {
		s.index[p] = i
	}
	if workers > 1 {
		s.sets = make([][]*autograd.Param, workers)
		for w := range s.sets {
			set := make([]*autograd.Param, len(params))
			for i, p := range params {
				set[i] = &autograd.Param{
					Name:  p.Name,
					Value: p.Value,
					Grad:  tensor.New(p.Value.Rows, p.Value.Cols),
				}
			}
			s.sets[w] = set
		}
	}
	return s
}

// Resolve returns the parameter gradient sink for shard w; w < 0 (or a
// sequential Shadows) selects the canonical parameter.
func (s *Shadows) Resolve(w int, p *autograd.Param) *autograd.Param {
	if w < 0 || s.sets == nil {
		return p
	}
	return s.sets[w][s.index[p]]
}

// Collect swaps shard w's gradient buffers with the canonical ones so
// the next optimizer Step consumes them. No-op for sequential shards.
func (s *Shadows) Collect(w int) {
	if w < 0 || s.sets == nil {
		return
	}
	set := s.sets[w]
	for i, p := range s.params {
		p.Grad, set[i].Grad = set[i].Grad, p.Grad
	}
}

// RunRounds executes steps 0..n-1 in synchronous rounds of up to
// pool.Workers() concurrent computations. compute(step, shard) must
// build the step's loss against shard-resolved parameters (shard == -1
// means sequential: canonical parameters, inline) and run Backward,
// returning the loss value; apply(step, loss) is called under the round
// barrier in ascending step order AFTER that step's gradients were
// collected onto the canonical parameters — it normally calls
// Optimizer.Step. Cancellation is checked between rounds.
func RunRounds(ctx context.Context, n int, pool *parallel.Pool, sh *Shadows,
	compute func(step, shard int) float64,
	apply func(step int, loss float64)) error {
	if pool == nil || pool.Workers() <= 1 {
		for step := 0; step < n; step++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			apply(step, compute(step, -1))
		}
		return nil
	}
	w := pool.Workers()
	losses := make([]float64, w)
	for lo := 0; lo < n; lo += w {
		hi := lo + w
		if hi > n {
			hi = n
		}
		if err := pool.Run(ctx, hi-lo, func(s int) {
			losses[s] = compute(lo+s, s)
		}); err != nil {
			return err
		}
		for s := 0; s < hi-lo; s++ {
			sh.Collect(s)
			apply(lo+s, losses[s])
		}
	}
	return nil
}

// Spec describes one model's BPR training loop to Train: its
// parameters, optimizer, random streams, and a per-batch loss builder.
type Spec struct {
	// Label prefixes log lines and names the model in ProgressEvents.
	Label string
	// Params are all trainable parameters (gradient sinks of Loss).
	Params []*autograd.Param
	// Opt applies one update per batch. An *optim.Adam is automatically
	// switched to pool-parallel steps when Workers > 1.
	Opt optim.Optimizer
	// Base seeds the derived per-(epoch, batch) streams of parallel
	// mode. Models pass a dedicated split of their root stream.
	Base *rng.RNG
	// Neg supplies sequential-mode negatives: one stream consumed in
	// batch order across all epochs, matching the pre-engine training loops.
	Neg *dataset.NegSampler
	// Streams holds the sequential-mode named RNG streams (e.g.
	// "dropout"), resolved by BatchCtx.RNG.
	Streams map[string]*rng.RNG
	// Samplers holds the sequential-mode named KG samplers (e.g.
	// "kgneg"), resolved by BatchCtx.KG.
	Samplers map[string]*KGSampler
	// Loss builds the scalar loss node for one mini-batch. It must
	// create every parameter leaf through bc.Leaf (or the bc.TransR /
	// bc.TransE views) and draw all randomness through bc, so the same
	// builder runs unchanged in sequential and parallel mode.
	Loss func(tp *autograd.Tape, bc *BatchCtx, users, pos, negs []int) *autograd.Node
	// ExtraSamples, when positive, is added to the per-epoch sample
	// count reported through TrainConfig.Progress (for models that
	// train on more than the interaction pairs, e.g. joint KG batches).
	ExtraSamples int
}

// BatchCtx gives a Spec.Loss builder access to shard-local state: leaf
// resolution against the right gradient sink and the batch's random
// streams.
type BatchCtx struct {
	Epoch int
	Batch int

	shard   int
	counter bool // counter-split RNG streams (parallel or checkpointed)
	sh      *Shadows
	spec    *Spec
	d       *dataset.Dataset
}

// Leaf records p on tp, resolving to this shard's gradient sink.
func (bc *BatchCtx) Leaf(tp *autograd.Tape, p *autograd.Param) *autograd.Node {
	return tp.Leaf(bc.sh.Resolve(bc.shard, p))
}

// RNG returns the named random stream for this batch: the single
// legacy stream in sequential mode, a per-(name, epoch, batch) derived
// stream in counter mode (parallel or checkpointed training).
func (bc *BatchCtx) RNG(name string) *rng.RNG {
	if !bc.counter {
		return bc.spec.Streams[name]
	}
	return bc.spec.Base.SplitIndexed(name, int64(bc.Epoch), int64(bc.Batch))
}

// KG returns the named knowledge-graph sampler for this batch, with the
// same sequential/counter stream discipline as RNG.
func (bc *BatchCtx) KG(name string) *KGSampler {
	if !bc.counter {
		return bc.spec.Samplers[name]
	}
	return NewKGSampler(bc.d.Graph,
		bc.spec.Base.SplitIndexed(name, int64(bc.Epoch), int64(bc.Batch)))
}

// TransR returns a view of t whose parameters resolve through this
// shard, so TransR.MarginLoss accumulates into the right gradient set.
func (bc *BatchCtx) TransR(t *TransR) *TransR {
	if bc.shard < 0 || bc.sh.sets == nil {
		return t
	}
	v := &TransR{
		Ent: bc.sh.Resolve(bc.shard, t.Ent),
		Rel: bc.sh.Resolve(bc.shard, t.Rel),
	}
	for _, p := range t.Proj {
		v.Proj = append(v.Proj, bc.sh.Resolve(bc.shard, p))
	}
	return v
}

// TransE is the TransE counterpart of BatchCtx.TransR.
func (bc *BatchCtx) TransE(t *TransE) *TransE {
	if bc.shard < 0 || bc.sh.sets == nil {
		return t
	}
	return &TransE{
		Ent: bc.sh.Resolve(bc.shard, t.Ent),
		Rel: bc.sh.Resolve(bc.shard, t.Rel),
	}
}

// Train drives the engine's multi-epoch BPR loop for spec: batching,
// negative sampling, round-parallel gradient computation, per-epoch
// logging ("<label> <dataset> epoch e/E loss=L", the historical line),
// progress reporting, and (when cfg.Checkpoint is set) epoch-boundary
// checkpointing with optional resume. It returns ctx.Err() if cancelled
// between rounds, leaving the model partially trained.
//
// Checkpointed training always uses the counter-split RNG streams, even
// with Workers <= 1: every draw is a function of (epoch, batch), so the
// checkpoint needs no RNG state and a resumed run replays the remaining
// epochs bit-identically.
func Train(ctx context.Context, d *dataset.Dataset, cfg models.TrainConfig, spec Spec) error {
	workers := cfg.EffectiveWorkers()
	counter := workers > 1 || cfg.Checkpoint != nil
	sh := NewShadows(spec.Params, workers)
	var pool *parallel.Pool
	if workers > 1 {
		pool = parallel.New(workers)
		if a, ok := spec.Opt.(*optim.Adam); ok {
			a.Parallel(pool)
		}
	}
	cp := NewCheckpointer(cfg.Checkpoint, spec.Label, cfg.Seed, spec.Params, spec.Opt)
	startEpoch, err := cp.Resume()
	if err != nil {
		return err
	}
	if startEpoch > 0 {
		cfg.Log("%s %s resumed from checkpoint at epoch %d/%d",
			spec.Label, d.Name, startEpoch, cfg.Epochs)
		if cfg.Logger != nil {
			cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "resumed from checkpoint",
				slog.String("model", spec.Label),
				slog.String("dataset", d.Name),
				slog.Int("epoch", startEpoch),
				slog.Int("epochs", cfg.Epochs),
			)
		}
	}
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochCtx, epochSpan := obs.StartSpan(ctx, "train.epoch")
		epochSpan.SetAttr("model", spec.Label)
		epochSpan.SetAttrInt("epoch", epoch+1)
		start := time.Now()
		pos := d.PosBatches(cfg.BatchSize, cfg.Seed+int64(epoch))
		var epochLoss float64
		compute := func(b, shard int) float64 {
			users, ps := pos[b][0], pos[b][1]
			var negs []int
			if !counter {
				negs = spec.Neg.Fill(users)
			} else {
				negs = d.NegSamplerFrom(
					spec.Base.SplitIndexed("neg", int64(epoch), int64(b))).Fill(users)
			}
			bc := &BatchCtx{Epoch: epoch, Batch: b, shard: shard, counter: counter,
				sh: sh, spec: &spec, d: d}
			tp := autograd.NewTape()
			loss := spec.Loss(tp, bc, users, ps, negs)
			tp.Backward(loss)
			return loss.Value.Data[0]
		}
		apply := func(_ int, loss float64) {
			spec.Opt.Step()
			epochLoss += loss
		}
		if err := RunRounds(ctx, len(pos), pool, sh, compute, apply); err != nil {
			epochSpan.End()
			return err
		}
		elapsed := time.Since(start)
		meanLoss := epochLoss / float64(len(pos))

		// Cut the checkpoint before reporting, so the ProgressEvent can
		// carry the measured checkpoint duration. Resume semantics are
		// unaffected: a crash between the cut and the report replays
		// from the checkpoint either way.
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

		cfg.Log("%s %s epoch %d/%d loss=%.4f", spec.Label, d.Name,
			epoch+1, cfg.Epochs, meanLoss)
		if cfg.Logger != nil {
			cfg.Logger.LogAttrs(epochCtx, slog.LevelInfo, "epoch complete",
				slog.String("model", spec.Label),
				slog.String("dataset", d.Name),
				slog.Int("epoch", epoch+1),
				slog.Int("epochs", cfg.Epochs),
				slog.Float64("loss", meanLoss),
				slog.Float64("duration_ms", float64(elapsed.Nanoseconds())/1e6),
			)
		}
		cfg.ReportProgress(models.ProgressEvent{
			Model: spec.Label, Dataset: d.Name,
			Epoch: epoch + 1, Epochs: cfg.Epochs,
			Loss:               meanLoss,
			Duration:           elapsed,
			Samples:            len(d.Train) + spec.ExtraSamples,
			CheckpointDuration: ckptDur,
		})
		epochSpan.SetAttrInt("batches", len(pos))
		epochSpan.End()
	}
	return nil
}
