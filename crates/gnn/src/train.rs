//! The training loop, with per-epoch metrics and host wall clock.
//!
//! [`Trainer::run_with`] is the workspace's only epoch loop. It cuts each
//! optimizer step into shards and leaves one thing to a [`ShardExecutor`]:
//! how a step's shards are executed — inline as one whole-batch shard
//! ([`Trainer::run`]) or fanned out over worker threads at one sample per
//! shard (`mega_dist::DistTrainer`). A [`TrainingHistory`] holds measured
//! values only; the modeled GPU epoch lives in [`crate::cost`], outside
//! the loop.

use crate::batch::Batch;
use crate::config::{EngineChoice, GnnConfig};
use crate::metrics;
use crate::model::Gnn;
use crate::nn::Binder;
use crate::parallel::preprocess_samples;
use mega_core::{AttentionSchedule, MegaConfig, Parallelism};
use mega_datasets::{Dataset, GraphSample, Task};
use mega_exec::{Backend, BufferPool, SimdBackend};
use mega_tensor::{Adam, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The global gradient-norm clip applied before every optimizer step.
const GRAD_CLIP: f32 = 5.0;

/// Host wall-clock seconds of one epoch, split by training phase.
///
/// Captured via [`mega_obs::Stopwatch`] directly in the training loop
/// (always measured, independent of the global [`mega_obs`] enable flag,
/// whose span tree carries the same boundaries at finer grain).
/// `assemble` covers per-epoch batch rebuilding and is
/// zero unless shuffling forces a rebuild; `evaluate` is the validation
/// pass. Wall-clock values are machine-dependent and excluded from every
/// bit-determinism comparison, like [`EpochRecord::real_seconds`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseSeconds {
    /// Batch (re)assembly: shuffling and index-structure rebuilds.
    pub assemble: f64,
    /// Model forward passes over the epoch's training batches.
    pub forward: f64,
    /// Reverse-mode gradient passes.
    pub backward: f64,
    /// Gradient application: binder scatter, clipping, Adam step.
    pub optimizer: f64,
    /// Validation-split evaluation at the end of the epoch.
    pub evaluate: f64,
}

impl PhaseSeconds {
    /// Sum of all phase times.
    pub fn total(&self) -> f64 {
        self.assemble + self.forward + self.backward + self.optimizer + self.evaluate
    }
}

/// One epoch of the training history — measured only: losses and
/// metrics from the run, seconds from the host clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Validation loss.
    pub val_loss: f64,
    /// Validation task metric (MAE for regression — lower is better;
    /// accuracy for classification — higher is better).
    pub val_metric: f64,
    /// Cumulative host (real) seconds of the run.
    pub real_seconds: f64,
    /// Host wall-clock breakdown of this epoch by training phase.
    pub phases: PhaseSeconds,
}

/// The result of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Engine label ("DGL" / "Mega").
    pub engine: String,
    /// Model label ("GCN" / "GT").
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Per-epoch records.
    pub records: Vec<EpochRecord>,
    /// CPU seconds spent in MEGA preprocessing (0 for the baseline).
    pub preprocess_seconds: f64,
    /// Held-out test loss after the final epoch.
    pub test_loss: f64,
    /// Held-out test metric after the final epoch (MAE or accuracy).
    pub test_metric: f64,
}

impl TrainingHistory {
    /// The best (minimum) validation loss reached.
    pub fn best_val_loss(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.val_loss)
            .fold(f64::INFINITY, f64::min)
    }

    /// Epochs needed to first reach `target` validation loss, if ever
    /// reached. Multiplied by the modeled epoch and added to
    /// [`preprocess_seconds`](Self::preprocess_seconds), it gives the
    /// paper's convergence time.
    pub fn epochs_to_loss(&self, target: f64) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.val_loss <= target)
            .map(|r| r.epoch)
    }
}

/// Trains a model on a dataset under one engine.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Graphs per batch.
    pub batch_size: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Engine selection.
    pub engine: EngineChoice,
    /// MEGA preprocessing configuration (used when `engine` is Mega).
    pub mega_config: MegaConfig,
    /// Reshuffle the sample-to-batch assignment every epoch with this seed
    /// (`None` keeps the fixed dataset order). Batches are re-assembled per
    /// epoch from the split's samples and, under the MEGA engine, from the
    /// schedules preprocessed once at the start of the run.
    pub shuffle_seed: Option<u64>,
    /// Thread budget for CPU-side work: per-sample preprocessing, batch
    /// index construction, and the tape's matrix products. All parallel
    /// paths are bit-deterministic, so training histories are identical for
    /// every setting.
    pub parallelism: Parallelism,
    /// Kernel execution backend for every tape op, [`SimdBackend`] unless
    /// set. All backends are bit-compatible with the reference
    /// (`mega_exec::ReferenceBackend`), so training histories are identical
    /// across backends too.
    pub backend: Arc<dyn Backend>,
}

impl Trainer {
    /// A trainer with the defaults used across the benches.
    pub fn new(engine: EngineChoice) -> Self {
        Trainer {
            batch_size: 32,
            epochs: 10,
            lr: 5e-3,
            engine,
            mega_config: MegaConfig::default(),
            shuffle_seed: None,
            parallelism: Parallelism::with_threads(1),
            backend: Arc::new(SimdBackend::new()),
        }
    }

    /// Sets the kernel execution backend (see `mega_exec::backend_by_name`).
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Enables per-epoch batch shuffling.
    pub fn with_shuffle(mut self, seed: u64) -> Self {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Sets the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the MEGA preprocessing configuration.
    pub fn with_mega_config(mut self, cfg: MegaConfig) -> Self {
        self.mega_config = cfg;
        self
    }

    /// Sets the CPU thread budget (preprocessing, batching, tape matmuls).
    /// Results are bit-identical for every setting.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// A split's MEGA schedules, one per sample, in sample order: the
    /// run's one preprocessing site, called once per split. Empty under
    /// the baseline engine, which needs none.
    fn schedules_of(&self, samples: &[GraphSample]) -> Vec<AttentionSchedule> {
        match self.engine {
            EngineChoice::Baseline => Vec::new(),
            EngineChoice::Mega => preprocess_samples(samples, &self.mega_config, &self.parallelism)
                .expect("preprocessing of a valid graph cannot fail"),
        }
    }

    /// Cuts a split into shards of `shard_size` samples, with `schedules`
    /// from [`Self::schedules_of`] over the same samples in the same order.
    fn shards_of(
        &self,
        samples: &[GraphSample],
        schedules: &[AttentionSchedule],
        shard_size: usize,
    ) -> Vec<Batch> {
        let chunks = samples.chunks(shard_size);
        match self.engine {
            EngineChoice::Baseline => chunks.map(Batch::baseline).collect(),
            EngineChoice::Mega => chunks
                .zip(schedules.chunks(shard_size))
                .map(|(c, s)| Batch::mega_with(c, s, &self.parallelism))
                .collect(),
        }
    }

    /// Runs whole-batch training — every optimizer step is one shard on
    /// this thread — and returns the per-epoch history.
    pub fn run(&self, dataset: &Dataset, config: GnnConfig) -> TrainingHistory {
        // One pool for the whole run: tapes recycle node buffers batch to
        // batch instead of re-allocating.
        let exec = Inline {
            pool: Arc::new(BufferPool::new()),
        };
        self.run_with(&exec, dataset, config)
    }

    /// The epoch loop, shared by every way of executing a step's shards.
    ///
    /// Each optimizer step takes `batch_size` samples, cut into shards of
    /// `exec.shard_size(batch_size)`; `exec` computes every shard on its
    /// own tape and the loop folds the shard gradients into the store in
    /// ascending shard order, scaled to the step mean. The fold order is
    /// fixed by the sharding alone, so the trajectory never depends on how
    /// (or on how many threads) `exec` ran the shards. Whole-batch training
    /// is the one-shard case: its single gradient is scaled by exactly 1.
    pub fn run_with(
        &self,
        exec: &dyn ShardExecutor,
        dataset: &Dataset,
        config: GnnConfig,
    ) -> TrainingHistory {
        let _train_span = mega_obs::span("train");
        mega_obs::counter_add("gnn.train.runs", 1);
        let start = mega_obs::Stopwatch::start();
        let task = dataset.task;
        let batch_size = self.batch_size.max(1);
        let shard_size = exec.shard_size(batch_size);
        let shards_per_step = batch_size / shard_size;

        // One-time preprocessing (CPU side, decoupled from training).
        let pre_start = mega_obs::Stopwatch::start();
        let (train_schedules, mut train_shards, val_shards) = {
            let _s = mega_obs::span("assemble");
            let schedules = self.schedules_of(&dataset.train);
            let train = self.shards_of(&dataset.train, &schedules, shard_size);
            let val = &dataset.val;
            let val = self.shards_of(val, &self.schedules_of(val), shard_size);
            (schedules, train, val)
        };
        let preprocess_seconds = if self.engine == EngineChoice::Mega {
            pre_start.elapsed().as_secs_f64()
        } else {
            0.0
        };

        let mut store = ParamStore::new();
        let model = Gnn::new(&mut store, config.clone());
        let mut opt = Adam::new(self.lr);
        let mut records = Vec::with_capacity(self.epochs);
        // Samples and schedules shuffle under two copies of one generator:
        // a shuffle's swaps depend only on the length and the draws, so both
        // follow the same cumulative permutation.
        let mut shuffle = self.shuffle_seed.map(|seed| {
            let rng = StdRng::seed_from_u64(seed);
            (rng.clone(), rng, dataset.train.clone(), train_schedules)
        });
        // Global step counter for the health monitors and the sentinel dump.
        let mut step = 0u64;
        for epoch in 1..=self.epochs {
            let _epoch_span = mega_obs::span("epoch");
            let mut phases = PhaseSeconds::default();
            // Optional per-epoch reshuffle of the sample order.
            let t_assemble = mega_obs::Stopwatch::start();
            if let (Some((sample_rng, schedule_rng, samples, schedules)), true) =
                (shuffle.as_mut(), epoch > 1)
            {
                let _s = mega_obs::span("assemble");
                samples.shuffle(sample_rng);
                schedules.shuffle(schedule_rng);
                train_shards = self.shards_of(samples, schedules, shard_size);
            }
            phases.assemble = t_assemble.elapsed().as_secs_f64();
            let mut loss_sum = 0.0f64;
            let steps = train_shards.chunks(shards_per_step);
            let n_steps = steps.len();
            for group in steps {
                let job = ShardJob {
                    trainer: self,
                    model: &model,
                    store: &store,
                    task,
                };
                let outs = exec.train_step(&job, group, &mut phases);
                // Deterministic all-reduce: every shard's gradient folded
                // into the store in ascending shard order, scaled to the
                // step mean — the same bits however the shards were run.
                let t_opt = mega_obs::Stopwatch::start();
                let inv = 1.0f32 / group.len() as f32;
                let mut batch_loss = 0.0f64;
                let grad_norm = {
                    let _s = mega_obs::span("optimizer");
                    for out in &outs {
                        batch_loss += out.loss;
                        for (p, g) in &out.grads {
                            store.accumulate(*p, &g.scale(inv));
                        }
                    }
                    let pre_clip = store.clip_grad_norm(GRAD_CLIP);
                    opt.step(&mut store);
                    pre_clip
                };
                batch_loss /= group.len() as f64;
                loss_sum += batch_loss;
                phases.optimizer += t_opt.elapsed().as_secs_f64();
                step += 1;
                // NaN/Inf sentinel: always on (two float checks per step).
                // A non-finite loss or gradient norm poisons every later
                // step, so fail fast with the full diagnostic picture.
                if !batch_loss.is_finite() || !grad_norm.is_finite() {
                    abort_nonfinite(epoch, step, batch_loss, grad_norm, &outs);
                }
                if mega_obs::enabled() {
                    mega_obs::record_value(
                        "gnn.health.loss_milli",
                        (batch_loss * 1e3).max(0.0) as u64,
                    );
                    mega_obs::record_value(
                        "gnn.health.grad_norm_milli",
                        (grad_norm as f64 * 1e3).max(0.0) as u64,
                    );
                    mega_obs::trace_counter("gnn.health.grad_norm", grad_norm as f64);
                }
            }
            let train_loss = loss_sum / n_steps.max(1) as f64;
            let t_eval = mega_obs::Stopwatch::start();
            let (val_loss, val_metric) = {
                let _s = mega_obs::span("evaluate");
                self.evaluate(exec, &model, &store, &val_shards, task)
            };
            phases.evaluate = t_eval.elapsed().as_secs_f64();
            records.push(EpochRecord {
                epoch,
                train_loss,
                val_loss,
                val_metric,
                real_seconds: start.elapsed().as_secs_f64(),
                phases,
            });
        }

        // Final held-out evaluation.
        let (test_loss, test_metric) = {
            let _s = mega_obs::span("evaluate");
            let test = &dataset.test;
            let test_shards = self.shards_of(test, &self.schedules_of(test), shard_size);
            self.evaluate(exec, &model, &store, &test_shards, task)
        };

        TrainingHistory {
            engine: self.engine.label().to_string(),
            model: config.kind.label().to_string(),
            dataset: dataset.name.clone(),
            records,
            preprocess_seconds,
            test_loss,
            test_metric,
        }
    }

    /// Evaluates `(loss, metric)` over a split's shards without updating
    /// parameters: shard results folded in ascending shard order, each
    /// weighted by its graph count.
    fn evaluate(
        &self,
        exec: &dyn ShardExecutor,
        model: &Gnn,
        store: &ParamStore,
        shards: &[Batch],
        task: Task,
    ) -> (f64, f64) {
        let job = ShardJob {
            trainer: self,
            model,
            store,
            task,
        };
        let mut loss_sum = 0.0f64;
        let mut metric_sum = 0.0f64;
        let mut graphs = 0usize;
        for (batch, out) in shards.iter().zip(exec.evaluate(&job, shards)) {
            loss_sum += out.loss * batch.n_graphs() as f64;
            metric_sum += out.metric * batch.n_graphs() as f64;
            graphs += batch.n_graphs();
        }
        let g = graphs.max(1) as f64;
        (loss_sum / g, metric_sum / g)
    }
}

/// What every shard of one step (or one evaluation pass) shares.
#[derive(Clone, Copy)]
pub struct ShardJob<'a> {
    /// Backend and thread-budget selection.
    pub trainer: &'a Trainer,
    /// The model being trained.
    pub model: &'a Gnn,
    /// Its current parameters.
    pub store: &'a ParamStore,
    /// The dataset's task (selects the metric).
    pub task: Task,
}

/// One shard's contribution to a step or an evaluation pass.
#[derive(Debug)]
pub struct ShardOutput {
    /// Mean loss over the shard's graphs.
    pub loss: f64,
    /// Task metric over the shard's graphs (MAE or accuracy).
    pub metric: f64,
    /// `(param, grad)` pairs in binding order; empty unless requested.
    pub grads: Vec<(ParamId, Tensor)>,
    /// Where non-finiteness entered the forward pass (node index, op
    /// kind), looked up only when `loss` is not finite.
    pub nonfinite_op: Option<(usize, &'static str)>,
}

/// How a step's shards are executed: the one seam of [`Trainer::run_with`].
///
/// Both methods return one [`ShardOutput`] per shard, in shard order, each
/// computed by [`run_shard`] (or its timed equivalent) so that a shard's
/// bits depend only on the shard and the parameters.
pub trait ShardExecutor {
    /// Samples per shard for a step of `batch_size` samples; must divide
    /// `batch_size`.
    fn shard_size(&self, batch_size: usize) -> usize;

    /// Runs one optimizer step's shards with gradients, adding the time
    /// spent to `phases`.
    fn train_step(
        &self,
        job: &ShardJob<'_>,
        shards: &[Batch],
        phases: &mut PhaseSeconds,
    ) -> Vec<ShardOutput>;

    /// Runs a whole split's shards without gradients.
    fn evaluate(&self, job: &ShardJob<'_>, shards: &[Batch]) -> Vec<ShardOutput>;
}

/// Whole-batch execution: one shard per step, run on the loop's thread
/// with the forward and backward halves timed separately.
struct Inline {
    pool: Arc<BufferPool>,
}

impl ShardExecutor for Inline {
    fn shard_size(&self, batch_size: usize) -> usize {
        batch_size
    }

    fn train_step(
        &self,
        job: &ShardJob<'_>,
        shards: &[Batch],
        phases: &mut PhaseSeconds,
    ) -> Vec<ShardOutput> {
        shards
            .iter()
            .map(|batch| {
                let t_fwd = mega_obs::Stopwatch::start();
                let tape = {
                    let _s = mega_obs::span("forward");
                    ShardTape::forward(job, batch, &self.pool)
                };
                phases.forward += t_fwd.elapsed().as_secs_f64();
                let t_bwd = mega_obs::Stopwatch::start();
                let out = {
                    let _s = mega_obs::span("backward");
                    tape.finish(true)
                };
                phases.backward += t_bwd.elapsed().as_secs_f64();
                out
            })
            .collect()
    }

    fn evaluate(&self, job: &ShardJob<'_>, shards: &[Batch]) -> Vec<ShardOutput> {
        // The run's pool, as the sharded trainer's workers do: evaluation
        // tapes recycle the parked training buffers instead of allocating.
        shards
            .iter()
            .map(|batch| run_shard(job, batch, &self.pool, false))
            .collect()
    }
}

/// A shard's tape after its forward pass.
struct ShardTape<'a> {
    tape: Tape,
    binder: Binder,
    pred: Var,
    loss: Var,
    batch: &'a Batch,
    task: Task,
}

impl<'a> ShardTape<'a> {
    /// Tape → forward → loss for one shard, drawing buffers from `pool`.
    fn forward(job: &ShardJob<'_>, batch: &'a Batch, pool: &Arc<BufferPool>) -> Self {
        let t = job.trainer;
        let mut tape = Tape::with_exec(t.backend.clone(), pool.clone());
        tape.set_parallelism(t.parallelism);
        let mut binder = Binder::new();
        let pred = job.model.forward(&mut tape, &mut binder, job.store, batch);
        let loss = job.model.loss(&mut tape, pred, batch, job.task);
        ShardTape {
            tape,
            binder,
            pred,
            loss,
            batch,
            task: job.task,
        }
    }

    /// Reads loss and metric off the tape and, when `want_grads`, runs the
    /// backward pass.
    fn finish(self, want_grads: bool) -> ShardOutput {
        let loss = self.tape.value(self.loss).at(0, 0) as f64;
        let pred = self.tape.value(self.pred);
        let metric = match self.task {
            Task::Regression => metrics::mae(pred, &self.batch.regression_targets()),
            Task::Classification { .. } => metrics::accuracy(pred, &self.batch.class_targets()),
        };
        let nonfinite_op = if loss.is_finite() {
            None
        } else {
            self.tape.first_nonfinite()
        };
        let grads = if want_grads {
            self.binder.shard_grads(&self.tape.backward(self.loss))
        } else {
            Vec::new()
        };
        ShardOutput {
            loss,
            metric,
            grads,
            nonfinite_op,
        }
    }
}

/// Computes one shard start to finish on its own tape. Self-contained:
/// the result's bits depend only on the shard and the parameters, never on
/// the thread or the pool that ran it (pooling is content-neutral).
pub fn run_shard(
    job: &ShardJob<'_>,
    batch: &Batch,
    pool: &Arc<BufferPool>,
    want_grads: bool,
) -> ShardOutput {
    ShardTape::forward(job, batch, pool).finish(want_grads)
}

/// Aborts training on a non-finite loss or gradient norm with a diagnostic
/// dump: the offending tape op (where non-finiteness entered a shard's
/// forward pass), the epoch/step coordinates, the full metrics snapshot,
/// and the flight-recorder ring of recent span events.
///
/// Panicking (rather than returning an error) is deliberate: a poisoned
/// parameter store has no recovery path mid-run, and the panic payload
/// carries the dump to whatever harness drives training.
fn abort_nonfinite(epoch: usize, step: u64, loss: f64, grad_norm: f32, outs: &[ShardOutput]) -> ! {
    let offender = outs
        .iter()
        .enumerate()
        .find_map(|(shard, out)| {
            let (idx, kind) = out.nonfinite_op?;
            Some(format!("node #{idx} ({kind}) of shard {shard}"))
        })
        .unwrap_or_else(|| "not on the tape (entered through optimizer state)".to_string());
    panic!(
        "non-finite training signal at epoch {epoch} step {step}: \
         loss={loss}, pre-clip grad norm={grad_norm}\n\
         offending op: {offender}\n\
         metrics snapshot:\n{}\n{}",
        mega_obs::snapshot().to_json(false),
        mega_obs::render_flight_recorder(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use mega_datasets::{cycles, zinc, DatasetSpec};

    fn tiny_config(ds: &Dataset, kind: ModelKind, out: usize) -> GnnConfig {
        GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, out)
            .with_hidden(16)
            .with_layers(2)
            .with_heads(2)
    }

    #[test]
    fn regression_training_reduces_loss() {
        let ds = zinc(&DatasetSpec::tiny(21));
        let cfg = tiny_config(&ds, ModelKind::GatedGcn, 1);
        let hist = Trainer::new(EngineChoice::Baseline)
            .with_epochs(8)
            .with_batch_size(8)
            .run(&ds, cfg);
        let first = hist.records.first().unwrap().train_loss;
        let last = hist.records.last().unwrap().train_loss;
        assert!(last < first * 0.8, "loss did not drop: {first} -> {last}");
        assert_eq!(hist.records.len(), 8);
    }

    #[test]
    fn mega_training_matches_baseline_quality() {
        let ds = zinc(&DatasetSpec::tiny(22));
        let cfg = tiny_config(&ds, ModelKind::GatedGcn, 1);
        let base = Trainer::new(EngineChoice::Baseline)
            .with_epochs(6)
            .with_batch_size(8)
            .run(&ds, cfg.clone());
        let mega = Trainer::new(EngineChoice::Mega)
            .with_epochs(6)
            .with_batch_size(8)
            .run(&ds, cfg.clone());
        // Same initialization and equivalent math: final losses comparable.
        let b = base.records.last().unwrap().train_loss;
        let m = mega.records.last().unwrap().train_loss;
        assert!(
            (b - m).abs() < 0.35 * b.max(m).max(0.1),
            "baseline {b} vs mega {m}"
        );
        // And the modeled epoch is cheaper for MEGA.
        let modeled = |engine| {
            crate::cost::modeled_epoch(&ds, &cfg, engine, 8, &MegaConfig::default()).epoch_seconds
        };
        assert!(modeled(EngineChoice::Mega) < modeled(EngineChoice::Baseline));
    }

    #[test]
    fn classification_training_improves_accuracy() {
        let spec = DatasetSpec {
            train: 96,
            val: 16,
            test: 8,
            seed: 23,
        };
        let ds = cycles(&spec);
        let cfg = tiny_config(&ds, ModelKind::GatedGcn, 2);
        let hist = Trainer::new(EngineChoice::Baseline)
            .with_epochs(12)
            .with_batch_size(8)
            .with_lr(5e-3)
            .run(&ds, cfg);
        let last = hist.records.last().unwrap();
        assert!(last.val_metric >= 0.6, "accuracy {}", last.val_metric);
        assert!(last.train_loss < hist.records[0].train_loss);
    }

    #[test]
    fn shuffling_trains_and_differs_from_fixed_order() {
        let ds = zinc(&DatasetSpec::tiny(27));
        let cfg = tiny_config(&ds, ModelKind::GatedGcn, 1);
        let fixed = Trainer::new(EngineChoice::Baseline)
            .with_epochs(3)
            .with_batch_size(8)
            .run(&ds, cfg.clone());
        let shuffled = Trainer::new(EngineChoice::Baseline)
            .with_epochs(3)
            .with_batch_size(8)
            .with_shuffle(99)
            .run(&ds, cfg);
        assert!(shuffled.records.iter().all(|r| r.train_loss.is_finite()));
        // Epoch 1 is identical (shuffle starts at epoch 2); later epochs see
        // different batch compositions, so losses diverge.
        assert!((fixed.records[0].train_loss - shuffled.records[0].train_loss).abs() < 1e-9);
        assert!((fixed.records[2].train_loss - shuffled.records[2].train_loss).abs() > 1e-9);
    }

    #[test]
    fn test_split_is_evaluated() {
        let ds = zinc(&DatasetSpec::tiny(28));
        let cfg = tiny_config(&ds, ModelKind::GatedGcn, 1);
        let hist = Trainer::new(EngineChoice::Baseline)
            .with_epochs(2)
            .with_batch_size(8)
            .run(&ds, cfg);
        assert!(hist.test_loss.is_finite());
        assert!(hist.test_metric.is_finite());
        // Regression metric is MAE, same scale as val metric.
        let last = hist.records.last().unwrap();
        assert!((hist.test_metric - last.val_metric).abs() < 1.0);
    }

    #[test]
    fn history_helpers() {
        let ds = zinc(&DatasetSpec::tiny(24));
        let cfg = tiny_config(&ds, ModelKind::GatedGcn, 1);
        let hist = Trainer::new(EngineChoice::Baseline)
            .with_epochs(3)
            .with_batch_size(8)
            .run(&ds, cfg);
        assert!(hist.best_val_loss().is_finite());
        // Phase timings are captured and non-negative.
        for r in &hist.records {
            assert!(r.phases.total() >= 0.0);
            assert!(r.phases.forward > 0.0, "forward time should be nonzero");
        }
        let worst = hist.records.iter().map(|r| r.val_loss).fold(0.0, f64::max);
        assert_eq!(hist.epochs_to_loss(worst + 1.0), Some(1));
        assert!(hist.epochs_to_loss(-1.0).is_none());
        let best = hist.best_val_loss();
        let first_best = hist.records.iter().find(|r| r.val_loss == best).unwrap();
        assert_eq!(hist.epochs_to_loss(best), Some(first_best.epoch));
    }

    #[test]
    fn training_is_bit_identical_across_backends() {
        // The backend must not change a single bit of the training history,
        // for either model family (GatedGCN exercises the fused
        // `batch_norm_relu`, both the fused `linear_relu`).
        let ds = zinc(&DatasetSpec::tiny(33));
        for kind in [ModelKind::GatedGcn, ModelKind::GraphTransformer] {
            let cfg = tiny_config(&ds, kind, 1);
            let oracle = Trainer::new(EngineChoice::Baseline)
                .with_epochs(3)
                .with_batch_size(8)
                .run(&ds, cfg.clone());
            for name in ["simd", "profiled"] {
                let backend = mega_exec::backend_by_name(name).unwrap();
                let run = Trainer::new(EngineChoice::Baseline)
                    .with_epochs(3)
                    .with_batch_size(8)
                    .with_backend(backend)
                    .run(&ds, cfg.clone());
                for (p, o) in run.records.iter().zip(&oracle.records) {
                    assert_eq!(
                        p.train_loss.to_bits(),
                        o.train_loss.to_bits(),
                        "{kind:?}/{name} epoch {} train loss diverged: {} vs {}",
                        p.epoch,
                        p.train_loss,
                        o.train_loss
                    );
                    assert_eq!(p.val_loss.to_bits(), o.val_loss.to_bits());
                    assert_eq!(p.val_metric.to_bits(), o.val_metric.to_bits());
                }
                assert_eq!(run.test_loss.to_bits(), oracle.test_loss.to_bits());
            }
        }
    }

    #[test]
    fn history_helpers_on_empty_run() {
        let hist = TrainingHistory {
            engine: "DGL".to_string(),
            model: "GatedGCN".to_string(),
            dataset: "empty".to_string(),
            records: Vec::new(),
            preprocess_seconds: 0.0,
            test_loss: 0.0,
            test_metric: 0.0,
        };
        assert!(hist.best_val_loss().is_infinite());
        assert!(hist.epochs_to_loss(0.0).is_none());
    }
}
