// Package models defines the common interface implemented by every
// recommendation model in the repository — the seven baselines of Table
// II (BPRMF, FM, NFM, CKE, CFKG, RippleNet, KGCN) and the paper's CKAT
// (in internal/core) — plus the shared training configuration.
package models

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// Trainer is the training contract every model implements: a trainable,
// context-aware top-K recommender. Train must honor ctx (returning
// ctx.Err() promptly when cancelled, leaving the model partially
// trained) and must be deterministic given (cfg.Seed, cfg.Workers):
// with Workers <= 1 it reproduces the historical single-goroutine
// results bit-for-bit, and for any fixed Workers = N two runs produce
// identical parameters.
type Trainer interface {
	eval.Scorer
	// Name returns the model's Table II row label.
	Name() string
	// Train fits the model on d under cfg.
	Train(ctx context.Context, d *dataset.Dataset, cfg TrainConfig) error
}

// ProgressEvent reports one completed training epoch to the
// TrainConfig.Progress callback.
type ProgressEvent struct {
	Model   string
	Dataset string
	Epoch   int // 1-based
	Epochs  int
	// Loss is the mean per-batch training loss of the epoch (for CKAT,
	// the BPR phase loss — the quantity its log line reports as cfLoss).
	Loss     float64
	Duration time.Duration // epoch wall time
	// Samples counts training examples processed this epoch (including
	// KG-phase triples for models with an embedding-layer phase).
	Samples       int
	SamplesPerSec float64
	// CheckpointDuration is the wall time spent cutting this epoch's
	// checkpoint; zero when checkpointing is disabled or the epoch fell
	// between checkpoint intervals.
	CheckpointDuration time.Duration
}

// TrainConfig carries the hyperparameters shared across models
// (§VI-D). Model-specific knobs live on the model constructors.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	L2        float64 // coefficient for L2 normalization
	EmbedDim  int
	Dropout   float64
	Seed      int64
	// Workers caps the number of concurrent gradient workers. 0 or 1
	// trains sequentially, reproducing the pre-parallel results
	// bit-for-bit. N > 1 runs synchronous rounds of N mini-batches:
	// each round's gradients are computed concurrently from the same
	// parameter snapshot, then applied in batch order, so results are
	// deterministic for any fixed N (and independent of scheduling).
	Workers int
	// Logf, when non-nil, receives per-epoch progress lines.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured per-epoch records (and
	// resume/checkpoint events) in addition to any Logf lines. Training
	// loops log through it with the training context, so records carry
	// trace correlation when the caller traced the run.
	Logger *slog.Logger
	// Progress, when non-nil, receives one ProgressEvent per epoch.
	Progress func(ProgressEvent)
	// Checkpoint, when non-nil, enables epoch-boundary checkpointing
	// (and, with Checkpoint.Resume, crash-resume) on the shared engine.
	// Enabling it switches training to the counter-split RNG discipline
	// for every worker count — randomness derived from (label, epoch,
	// batch) instead of streams consumed across the whole run — so a
	// resumed run is bit-identical to an uninterrupted one. Sequential
	// results therefore match checkpointed-sequential results only
	// within the same mode.
	Checkpoint *CheckpointSpec
}

// CheckpointSpec configures training checkpoints: where they live, how
// often they are cut, and whether training starts by restoring the
// latest valid one.
type CheckpointSpec struct {
	// Store is the atomic checkpoint store (required).
	Store *ckpt.Store
	// Every saves a checkpoint each time this many epochs complete
	// (<= 0 means every epoch).
	Every int
	// Resume restores the newest valid checkpoint for the model before
	// training, continuing from its epoch. Corrupt checkpoints are
	// skipped; with none valid, training starts from scratch.
	Resume bool
}

// EveryN normalizes Every to a positive interval.
func (s *CheckpointSpec) EveryN() int {
	if s == nil || s.Every < 1 {
		return 1
	}
	return s.Every
}

// DefaultTrainConfig mirrors the paper's settings (§VI-D): embedding
// size 64, Adam, batch size 512. Epochs are capped for tractability on
// the synthetic datasets; increase for closer convergence.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:    25,
		BatchSize: 512,
		LR:        0.01,
		L2:        1e-5,
		EmbedDim:  64,
		Dropout:   0.1,
		Seed:      2021,
	}
}

// EffectiveWorkers normalizes Workers to a positive worker count.
func (c TrainConfig) EffectiveWorkers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Log emits a progress line when Logf is configured.
func (c TrainConfig) Log(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ReportProgress delivers ev to the Progress callback when one is
// configured, deriving SamplesPerSec from Samples and Duration.
func (c TrainConfig) ReportProgress(ev ProgressEvent) {
	if c.Progress == nil {
		return
	}
	if ev.Duration > 0 {
		ev.SamplesPerSec = float64(ev.Samples) / ev.Duration.Seconds()
	}
	c.Progress(ev)
}
