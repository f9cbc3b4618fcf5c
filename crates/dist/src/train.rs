//! Distributed training with a deterministic fixed-order gradient
//! all-reduce.
//!
//! [`DistTrainer`] fans one optimizer step's gradient work out over `k`
//! worker threads and all-reduces at the optimizer boundary. The unit of
//! distribution is a *shard* — one training sample, with its gradient
//! computed start-to-finish on one worker's own tape — because float
//! addition does not associate: summing per-worker partials would weld the
//! reduction tree to the worker count and change bits between `k = 1` and
//! `k = 4`. Fixing the shard granularity (independent of `k`) and folding
//! every shard's gradient on the coordinator in ascending shard order makes
//! the loss trajectory bit-identical for **any** worker count by
//! construction — the same ownership argument the band engine's chunk
//! merge uses, applied to the optimizer boundary.
//!
//! Workers keep their own persistent [`BufferPool`]; pooling is
//! content-neutral, so which worker computes a shard never affects its
//! bits.
//!
//! Note the distributed trajectory is *not* bit-compared against
//! [`Trainer`]: batch normalization couples samples through column
//! statistics over the whole batch, so per-sample shard tapes legitimately
//! see different statistics than one whole-batch tape. The invariant that
//! matters — and the one CI's `dist-equivalence` matrix enforces — is
//! worker-count invariance at fixed sharding.

use mega_datasets::{Dataset, GraphSample, Task};
use mega_exec::BufferPool;
use mega_gnn::nn::Binder;
use mega_gnn::{cost, metrics};
use mega_gnn::{
    preprocess_samples, Batch, EngineChoice, EpochRecord, Gnn, GnnConfig, PhaseSeconds, Trainer,
    TrainingHistory,
};
use mega_tensor::{Adam, Optimizer, ParamId, ParamStore, Tape, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// One shard's contribution, shipped from a worker to the coordinator.
struct ShardMsg {
    shard: usize,
    loss: f64,
    metric: f64,
    grads: Vec<(ParamId, Tensor)>,
}

/// Trains with `workers` gradient workers and a deterministic all-reduce.
///
/// Wraps a [`Trainer`] for all hyperparameters (engine, backend, planner,
/// parallelism, plateau protocol); only the optimizer-step execution
/// changes. `workers == 1` runs the identical sharded protocol on one
/// thread, so it is the in-family oracle the multi-worker runs are
/// bit-compared against.
#[derive(Debug, Clone)]
pub struct DistTrainer {
    /// Hyperparameters and engine/backend selection.
    pub inner: Trainer,
    /// Gradient worker count.
    pub workers: usize,
}

impl DistTrainer {
    /// A distributed trainer over `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(inner: Trainer, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        DistTrainer { inner, workers }
    }

    /// Builds one single-sample batch per sample — the fixed shard
    /// granularity that makes the reduction worker-count invariant.
    fn build_shards(&self, samples: &[GraphSample]) -> Vec<Batch> {
        samples
            .chunks(1)
            .map(|c| match self.inner.engine {
                EngineChoice::Baseline => Batch::baseline(c),
                EngineChoice::Mega => {
                    let schedules =
                        preprocess_samples(c, &self.inner.mega_config, &self.inner.parallelism)
                            .expect("preprocessing of a valid graph cannot fail");
                    Batch::mega_with(c, &schedules, &self.inner.parallelism)
                }
            })
            .collect()
    }

    /// Computes loss, metric, and (optionally) gradients for one shard on
    /// its own tape. Self-contained: bits depend only on the shard and the
    /// parameters, never on which worker runs it.
    #[allow(clippy::too_many_arguments)]
    fn run_shard(
        &self,
        model: &Gnn,
        store: &ParamStore,
        batch: &Batch,
        task: Task,
        pool: &Arc<BufferPool>,
        want_grads: bool,
    ) -> (f64, f64, Vec<(ParamId, Tensor)>) {
        let mut tape = Tape::with_exec(self.inner.backend.clone(), pool.clone());
        tape.set_parallelism(self.inner.parallelism);
        tape.set_planning(self.inner.plan);
        let mut binder = Binder::new();
        let pred = model.forward(&mut tape, &mut binder, store, batch);
        let loss = model.loss(&mut tape, pred, batch, task);
        let loss_val = tape.value(loss).at(0, 0) as f64;
        let pv = tape.value(pred);
        let metric = match task {
            Task::Regression => metrics::mae(pv, &batch.regression_targets()),
            Task::Classification { .. } => metrics::accuracy(pv, &batch.class_targets()),
        };
        let grads = if want_grads {
            let g = tape.backward(loss);
            binder.shard_grads(&g)
        } else {
            Vec::new()
        };
        (loss_val, metric, grads)
    }

    /// Fans `shards` out over the workers (shard `s` goes to worker
    /// `s mod k` — a fixed assignment, not work stealing, so the message
    /// pattern is reproducible) and returns per-shard results in ascending
    /// shard order. The coordinator's fold over that order is the
    /// deterministic all-reduce.
    fn scatter_gather(
        &self,
        model: &Gnn,
        store: &ParamStore,
        shards: &[Batch],
        task: Task,
        pools: &[Arc<BufferPool>],
        want_grads: bool,
    ) -> Vec<ShardMsg> {
        let k = pools.len();
        let (tx, rx) = channel::<ShardMsg>();
        let mut slots: Vec<Option<ShardMsg>> = Vec::new();
        slots.resize_with(shards.len(), || None);
        std::thread::scope(|s| {
            for (w, pool) in pools.iter().enumerate() {
                let tx = tx.clone();
                s.spawn(move || {
                    for (shard, batch) in shards.iter().enumerate().skip(w).step_by(k) {
                        let t = mega_obs::timer();
                        let (loss, metric, grads) =
                            self.run_shard(model, store, batch, task, pool, want_grads);
                        t.observe("dist.train.shard_ns");
                        tx.send(ShardMsg {
                            shard,
                            loss,
                            metric,
                            grads,
                        })
                        .expect("coordinator disconnected");
                    }
                });
            }
            drop(tx);
            // Collect on the coordinator while workers run; arrival order
            // is scheduling-dependent, the slot table restores shard order.
            while let Ok(msg) = rx.recv() {
                let slot = &mut slots[msg.shard];
                assert!(slot.is_none(), "shard {} computed twice", msg.shard);
                *slot = Some(msg);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("shard never computed"))
            .collect()
    }

    /// Distributed evaluation: shard losses/metrics folded in ascending
    /// shard order, each shard weighted by its single graph.
    fn evaluate(
        &self,
        model: &Gnn,
        store: &ParamStore,
        shards: &[Batch],
        task: Task,
        pools: &[Arc<BufferPool>],
    ) -> (f64, f64) {
        let results = self.scatter_gather(model, store, shards, task, pools, false);
        let mut loss_sum = 0.0f64;
        let mut metric_sum = 0.0f64;
        for msg in &results {
            loss_sum += msg.loss;
            metric_sum += msg.metric;
        }
        let g = shards.len().max(1) as f64;
        (loss_sum / g, metric_sum / g)
    }

    /// Runs distributed training and returns the per-epoch history —
    /// bit-identical for every `workers` setting.
    pub fn run(&self, dataset: &Dataset, config: GnnConfig) -> TrainingHistory {
        let _train_span = mega_obs::span("train");
        mega_obs::counter_add("gnn.train.runs", 1);
        mega_obs::counter_add("dist.train.runs", 1);
        mega_obs::counter_add("dist.train.workers", self.workers as u64);
        let start = mega_obs::Stopwatch::start();
        let task = dataset.task;
        let t = &self.inner;

        let pre_start = mega_obs::Stopwatch::start();
        let (train_shards, val_shards) = {
            let _s = mega_obs::span("assemble");
            (
                self.build_shards(&dataset.train),
                self.build_shards(&dataset.val),
            )
        };
        let preprocess_seconds = if t.engine == EngineChoice::Mega {
            pre_start.elapsed().as_secs_f64()
        } else {
            0.0
        };

        // Simulated GPU epoch time from a representative batch — the same
        // accounting as the single-process trainer, so sim-clock columns
        // stay comparable across the two.
        let steps_per_epoch = dataset.train.len().div_ceil(t.batch_size.max(1)).max(1);
        let rep = &dataset.train[..dataset.train.len().min(t.batch_size)];
        let rep_schedules = if t.engine == EngineChoice::Mega {
            Some(
                preprocess_samples(rep, &t.mega_config, &t.parallelism)
                    .expect("preprocessing of a valid graph cannot fail"),
            )
        } else {
            None
        };
        let epoch_sim_seconds = cost::epoch_cost(
            &config,
            t.engine,
            rep,
            rep_schedules.as_deref(),
            steps_per_epoch,
        )
        .epoch_seconds;

        let mut store = ParamStore::new();
        let model = Gnn::new(&mut store, config.clone());
        let mut opt = Adam::new(t.lr);
        // Quiet pools: worker pools run concurrently, and live exports to
        // the shared per-class gauge names would interleave last-writer-wins
        // across threads. The coordinator aggregates their stats once after
        // training instead (`export_pool_gauges`), keeping the deterministic
        // snapshot worker-count invariant in what it *carries*, if not in
        // every value (per-pool caps adapt to per-worker demand).
        let pools: Vec<Arc<BufferPool>> = (0..self.workers)
            .map(|_| Arc::new(BufferPool::quiet()))
            .collect();

        let mut records = Vec::with_capacity(t.epochs);
        let mut sim_clock = preprocess_seconds;
        let mut best_val = f64::INFINITY;
        let mut since_best = 0usize;
        let mut shuffle_rng = t.shuffle_seed.map(StdRng::seed_from_u64);
        let mut shuffled_samples = dataset.train.clone();
        let mut step = 0u64;

        for epoch in 1..=t.epochs {
            let _epoch_span = mega_obs::span("epoch");
            mega_obs::counter_add("gnn.train.epochs", 1);
            let mut phases = PhaseSeconds::default();
            let t_assemble = mega_obs::Stopwatch::start();
            let epoch_shards: Vec<Batch> = match shuffle_rng.as_mut() {
                Some(rng) if epoch > 1 => {
                    let _s = mega_obs::span("assemble");
                    shuffled_samples.shuffle(rng);
                    self.build_shards(&shuffled_samples)
                }
                _ => Vec::new(),
            };
            let epoch_shards: &[Batch] = if epoch_shards.is_empty() {
                &train_shards
            } else {
                &epoch_shards
            };
            phases.assemble = t_assemble.elapsed().as_secs_f64();

            let mut loss_sum = 0.0f64;
            let mut steps_this_epoch = 0usize;
            for group in epoch_shards.chunks(t.batch_size.max(1)) {
                mega_obs::counter_add("gnn.train.batches", 1);
                mega_obs::counter_add("dist.train.steps", 1);
                mega_obs::counter_add("dist.train.shards", group.len() as u64);
                let t_fwd = mega_obs::Stopwatch::start();
                let results = {
                    let _s = mega_obs::span("forward");
                    self.scatter_gather(&model, &store, group, task, &pools, true)
                };
                phases.forward += t_fwd.elapsed().as_secs_f64();
                // Deterministic all-reduce: every shard's gradient folded
                // into the store in ascending shard order, scaled to the
                // batch mean — the same bits for 1, 2, or 64 workers.
                let t_opt = mega_obs::Stopwatch::start();
                let inv_b = 1.0f32 / group.len().max(1) as f32;
                let mut batch_loss = 0.0f64;
                {
                    let _s = mega_obs::span("optimizer");
                    for msg in &results {
                        batch_loss += msg.loss;
                        for (p, g) in &msg.grads {
                            store.accumulate(*p, &g.scale(inv_b));
                        }
                    }
                }
                batch_loss /= group.len().max(1) as f64;
                loss_sum += batch_loss;
                let grad_norm = {
                    let _s = mega_obs::span("optimizer");
                    let pre_clip = store.clip_grad_norm(t.grad_clip);
                    opt.step(&mut store);
                    pre_clip
                };
                phases.optimizer += t_opt.elapsed().as_secs_f64();
                step += 1;
                steps_this_epoch += 1;
                // NaN/Inf sentinel, mirroring the single-process trainer: a
                // poisoned store has no recovery path, so fail fast. The
                // offending tape lives on a worker thread and is gone; the
                // snapshot and flight recorder still localize the step.
                if !batch_loss.is_finite() || !grad_norm.is_finite() {
                    panic!(
                        "non-finite training signal at epoch {epoch} step {step} \
                         ({} workers): loss={batch_loss}, pre-clip grad \
                         norm={grad_norm}\nmetrics snapshot:\n{}\n{}",
                        self.workers,
                        mega_obs::snapshot().to_json(false),
                        mega_obs::render_flight_recorder(),
                    );
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
            let train_loss = loss_sum / steps_this_epoch.max(1) as f64;

            let t_eval = mega_obs::Stopwatch::start();
            let (val_loss, val_metric) = {
                let _s = mega_obs::span("evaluate");
                self.evaluate(&model, &store, &val_shards, task, &pools)
            };
            phases.evaluate = t_eval.elapsed().as_secs_f64();
            sim_clock += epoch_sim_seconds;
            records.push(EpochRecord {
                epoch,
                train_loss,
                val_loss,
                val_metric,
                sim_seconds: sim_clock,
                real_seconds: start.elapsed().as_secs_f64(),
                phases,
            });
            if val_loss < best_val - 1e-6 {
                best_val = val_loss;
                since_best = 0;
            } else {
                since_best += 1;
                if t.lr_patience > 0 && since_best.is_multiple_of(t.lr_patience) {
                    let lr = opt.learning_rate() * 0.5;
                    opt.set_learning_rate(lr);
                }
                if t.early_stop_patience > 0 && since_best >= t.early_stop_patience {
                    break;
                }
            }
        }

        let (test_loss, test_metric) = {
            let _s = mega_obs::span("evaluate");
            let test_shards = self.build_shards(&dataset.test);
            self.evaluate(&model, &store, &test_shards, task, &pools)
        };

        // The worker pools are quiet (see above): fold their per-class
        // telemetry here, after every shard has drained, and emit the
        // shared gauges once from the coordinator. Each worker's history
        // is fixed by the round-robin shard assignment, so the sums are
        // reproducible run-to-run.
        if mega_obs::enabled() {
            let mut agg: std::collections::BTreeMap<u32, (u64, u64, u64)> =
                std::collections::BTreeMap::new();
            for pool in &pools {
                for s in pool.class_stats() {
                    let e = agg.entry(s.class).or_default();
                    e.0 += s.resident_bytes;
                    e.1 += s.resident_hwm_bytes;
                    e.2 += s.cap as u64;
                }
            }
            for (class, (resident, hwm, cap)) in agg {
                mega_obs::gauge_set(
                    &format!("exec.pool.class{class}.resident_bytes"),
                    resident as f64,
                );
                mega_obs::gauge_set(
                    &format!("exec.pool.class{class}.resident_hwm_bytes"),
                    hwm as f64,
                );
                mega_obs::gauge_set(&format!("exec.pool.class{class}.cap"), cap as f64);
            }
        }

        TrainingHistory {
            engine: t.engine.label().to_string(),
            model: config.kind.label().to_string(),
            dataset: dataset.name.clone(),
            records,
            preprocess_seconds,
            epoch_sim_seconds,
            test_loss,
            test_metric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_datasets::{zinc, DatasetSpec};
    use mega_gnn::ModelKind;

    fn tiny(seed: u64) -> (Dataset, GnnConfig) {
        let ds = zinc(&DatasetSpec {
            train: 24,
            val: 8,
            test: 8,
            seed,
        });
        let cfg = GnnConfig::new(ModelKind::GatedGcn, ds.node_vocab, ds.edge_vocab, 1)
            .with_hidden(16)
            .with_layers(2)
            .with_heads(2);
        (ds, cfg)
    }

    fn bits(h: &TrainingHistory) -> Vec<u64> {
        let mut v: Vec<u64> = h
            .records
            .iter()
            .flat_map(|r| {
                [
                    r.train_loss.to_bits(),
                    r.val_loss.to_bits(),
                    r.val_metric.to_bits(),
                ]
            })
            .collect();
        v.push(h.test_loss.to_bits());
        v
    }

    #[test]
    fn trajectory_is_bit_identical_across_worker_counts() {
        let (ds, cfg) = tiny(41);
        let base = Trainer::new(EngineChoice::Baseline)
            .with_epochs(2)
            .with_batch_size(8);
        let oracle = DistTrainer::new(base.clone(), 1).run(&ds, cfg.clone());
        for workers in [2, 3, 4] {
            let hist = DistTrainer::new(base.clone(), workers).run(&ds, cfg.clone());
            assert_eq!(
                bits(&hist),
                bits(&oracle),
                "trajectory diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn mega_engine_trains_and_is_worker_invariant() {
        let (ds, cfg) = tiny(42);
        let base = Trainer::new(EngineChoice::Mega)
            .with_epochs(2)
            .with_batch_size(8);
        let one = DistTrainer::new(base.clone(), 1).run(&ds, cfg.clone());
        let four = DistTrainer::new(base, 4).run(&ds, cfg);
        assert_eq!(bits(&one), bits(&four));
        assert!(one.records.iter().all(|r| r.train_loss.is_finite()));
    }

    #[test]
    fn training_reduces_loss() {
        let (ds, cfg) = tiny(43);
        let base = Trainer::new(EngineChoice::Baseline)
            .with_epochs(6)
            .with_batch_size(8);
        let hist = DistTrainer::new(base, 2).run(&ds, cfg);
        let first = hist.records.first().unwrap().train_loss;
        let last = hist.records.last().unwrap().train_loss;
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert_eq!(hist.records.len(), 6);
    }

    #[test]
    fn shuffle_and_backends_stay_worker_invariant() {
        let (ds, cfg) = tiny(44);
        for name in ["reference", "simd"] {
            let backend = mega_exec::backend_by_name(name).unwrap();
            let base = Trainer::new(EngineChoice::Baseline)
                .with_epochs(2)
                .with_batch_size(8)
                .with_backend(backend)
                .with_shuffle(13);
            let one = DistTrainer::new(base.clone(), 1).run(&ds, cfg.clone());
            let three = DistTrainer::new(base, 3).run(&ds, cfg.clone());
            assert_eq!(bits(&one), bits(&three), "{name} diverged");
        }
    }
}
