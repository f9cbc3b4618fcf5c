//! Distributed training with a deterministic fixed-order gradient
//! all-reduce.
//!
//! [`DistTrainer`] runs [`Trainer`]'s epoch loop with a different shard
//! executor: one optimizer step's gradient work is fanned out over `k`
//! worker threads and all-reduced by the loop at the optimizer boundary.
//! The unit of distribution is a *shard* — one training sample, with its
//! gradient computed start-to-finish on one worker's own tape — because
//! float addition does not associate: summing per-worker partials would
//! weld the reduction tree to the worker count and change bits between
//! `k = 1` and `k = 4`. Fixing the shard granularity (independent of `k`)
//! and folding every shard's gradient in ascending shard order makes the
//! loss trajectory bit-identical for **any** worker count by construction
//! — the same ownership argument the band engine's chunk merge uses,
//! applied to the optimizer boundary.
//!
//! Workers keep their own persistent [`BufferPool`]; pooling is
//! content-neutral, so which worker computes a shard never affects its
//! bits.
//!
//! At `batch_size == 1` the two executors cut the same shards, so the
//! trajectory equals [`Trainer::run`]'s bit for bit. At larger batch
//! sizes it legitimately differs: batch normalization couples samples
//! through column statistics over the whole batch, so per-sample shard
//! tapes see different statistics than one whole-batch tape. The invariant
//! CI's `equivalence` matrix enforces there is worker-count invariance at
//! fixed sharding.

use mega_core::parallel::join_workers;
use mega_datasets::Dataset;
use mega_exec::BufferPool;
use mega_gnn::train::{run_shard, ShardExecutor, ShardJob, ShardOutput};
use mega_gnn::{Batch, GnnConfig, PhaseSeconds, Trainer, TrainingHistory};
use std::sync::Arc;

/// Trains with `workers` gradient workers and a deterministic all-reduce.
///
/// Wraps a [`Trainer`] for all hyperparameters (engine, backend, parallelism,
/// shuffle) and for the epoch loop itself; only the
/// execution of a step's shards changes. `workers == 1` runs the identical
/// sharded protocol on one thread, so it is the in-family oracle the
/// multi-worker runs are bit-compared against.
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

    /// Runs distributed training and returns the per-epoch history —
    /// bit-identical for every `workers` setting.
    pub fn run(&self, dataset: &Dataset, config: GnnConfig) -> TrainingHistory {
        mega_obs::counter_add("dist.train.runs", 1);
        mega_obs::counter_add("dist.train.workers", self.workers as u64);
        // Quiet pools: worker pools run concurrently, and live exports to
        // the shared per-class gauge names would interleave last-writer-wins
        // across threads. The coordinator aggregates their stats once after
        // training instead, keeping the deterministic snapshot worker-count
        // invariant in what it *carries*, if not in every value (per-pool
        // caps adapt to per-worker demand).
        let exec = FanOut {
            pools: (0..self.workers)
                .map(|_| Arc::new(BufferPool::quiet()))
                .collect(),
        };
        let history = self.inner.run_with(&exec, dataset, config);
        exec.export_pool_gauges();
        history
    }
}

/// Single-sample shards fanned out over one thread per pool — the fixed
/// shard granularity that makes the reduction worker-count invariant.
struct FanOut {
    pools: Vec<Arc<BufferPool>>,
}

impl FanOut {
    /// Fans `shards` out over the workers (shard `s` goes to worker
    /// `s mod k` — a fixed assignment, not work stealing, so each pool's
    /// history is reproducible) and returns per-shard results in ascending
    /// shard order.
    ///
    /// Each pool also keeps a fixed thread role: the last runs on the
    /// calling thread, the others on spawned ones. Spans nest by thread, so
    /// a pool that moved between threads from run to run would change the
    /// snapshot's span paths between identical runs.
    fn scatter_gather(
        &self,
        job: &ShardJob<'_>,
        shards: &[Batch],
        want_grads: bool,
    ) -> Vec<ShardOutput> {
        let k = self.pools.len();
        let mut per_pool: Vec<Vec<ShardOutput>> = (0..k).map(|_| Vec::new()).collect();
        let jobs = per_pool
            .iter_mut()
            .zip(&self.pools)
            .enumerate()
            .map(|(w, (out, pool))| {
                move || {
                    for batch in shards.iter().skip(w).step_by(k) {
                        let t = mega_obs::timer();
                        let shard = run_shard(job, batch, pool, want_grads);
                        t.observe("dist.train.shard_ns");
                        out.push(shard);
                    }
                }
            })
            .collect();
        join_workers(jobs);
        // Worker `w` computed shards `w, w + k, …`: interleave them back.
        let mut per_pool: Vec<_> = per_pool.into_iter().map(Vec::into_iter).collect();
        (0..shards.len())
            .filter_map(|s| per_pool[s % k].next())
            .collect()
    }

    /// The worker pools are quiet: fold their per-class telemetry after
    /// every shard has drained and emit the shared gauges once from the
    /// coordinator. Each worker's history is fixed by the round-robin shard
    /// assignment, so the sums are reproducible run-to-run.
    fn export_pool_gauges(&self) {
        if !mega_obs::enabled() {
            return;
        }
        let mut agg: std::collections::BTreeMap<u32, (u64, u64)> =
            std::collections::BTreeMap::new();
        for pool in &self.pools {
            for s in pool.class_stats() {
                let e = agg.entry(s.class).or_default();
                e.0 += s.resident_bytes;
                e.1 += s.resident_hwm_bytes;
            }
        }
        for (class, (resident, hwm)) in agg {
            mega_obs::gauge_set(
                &format!("exec.pool.class{class}.resident_bytes"),
                resident as f64,
            );
            mega_obs::gauge_set(
                &format!("exec.pool.class{class}.resident_hwm_bytes"),
                hwm as f64,
            );
        }
    }
}

impl ShardExecutor for FanOut {
    fn shard_size(&self, _batch_size: usize) -> usize {
        1
    }

    fn train_step(
        &self,
        job: &ShardJob<'_>,
        shards: &[Batch],
        phases: &mut PhaseSeconds,
    ) -> Vec<ShardOutput> {
        mega_obs::counter_add("dist.train.steps", 1);
        mega_obs::counter_add("dist.train.shards", shards.len() as u64);
        let t_fwd = mega_obs::Stopwatch::start();
        let outs = {
            let _s = mega_obs::span("forward");
            self.scatter_gather(job, shards, true)
        };
        phases.forward += t_fwd.elapsed().as_secs_f64();
        outs
    }

    fn evaluate(&self, job: &ShardJob<'_>, shards: &[Batch]) -> Vec<ShardOutput> {
        self.scatter_gather(job, shards, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_datasets::{zinc, DatasetSpec};
    use mega_gnn::{EngineChoice, ModelKind};

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

    #[test]
    fn batch_size_one_ties_sharded_to_whole_batch() {
        // At one sample per step both executors cut the same shards, so the
        // sharded trajectory must equal the whole-batch one bit for bit.
        let (ds, cfg) = tiny(45);
        for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
            for name in ["reference", "simd"] {
                let backend = mega_exec::backend_by_name(name).unwrap();
                let base = Trainer::new(engine)
                    .with_epochs(2)
                    .with_batch_size(1)
                    .with_backend(backend);
                let whole = base.run(&ds, cfg.clone());
                for workers in [1, 2] {
                    let hist = DistTrainer::new(base.clone(), workers).run(&ds, cfg.clone());
                    assert_eq!(
                        bits(&hist),
                        bits(&whole),
                        "{engine:?}/{name} diverged from Trainer at {workers} workers"
                    );
                }
            }
        }
    }
}
