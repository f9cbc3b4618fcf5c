//! The four training workloads: `Trainer::run` on a generated dataset,
//! timed from outside through the `EpochRecord`s it returns.
//!
//! An untraced run repeats `Trainer::run` (one warm-up epoch plus the
//! workload's timed epochs) until its time is up; every repetition gives
//! one set-up sample and its timed epochs. A traced run does fixed work:
//! the driver-timed layer calls, an untraced reference leg, then the same
//! training under `ProfiledBackend` with `mega_obs` on, once for the
//! warm-up epoch alone and once in full — the difference of the two
//! snapshots is exactly the timed epochs, so per-step counts repeat bit for
//! bit — and last the distributed-trainer leg.

use crate::spans::{timed, Recorder};
use crate::workloads::{DatasetKind, TrainSpec, Workload};
use crate::{
    attempt, fnv1a, obs_counter, obs_timing_ns, ratio, stats, verdict, Checks, RunOpts, RunOutput,
    WARMUP,
};
use mega_core::{AttentionSchedule, ChunkPlan, MegaConfig, Parallelism};
use mega_datasets::{Dataset, DatasetSpec, GraphSample, Task};
use mega_dist::DistTrainer;
use mega_exec::{Backend, ProfiledBackend, SimdBackend};
use mega_gnn::{
    preprocess_samples, Batch, EngineChoice, EpochRecord, GnnConfig, Trainer, TrainingHistory,
};
use mega_obs::{Snapshot, Stopwatch};
use std::sync::Arc;

/// Per-layer name prefixes no training workload exercises: single-graph
/// generation, the separately timed traversal stages, schedule
/// persistence, and the band kernels (off the training path today).
pub(crate) const NOT_COVERED: &[&str] = &[
    "graph.",
    "core.traverse",
    "core.schedule_build",
    "core.plan_cache.",
    "core.persist.",
    "exec.banded",
    "dist.band_",
    "dist.halo.",
];

/// Driver-timed `preprocess_samples` calls of a traced run.
const PREPROCESS_REPS: usize = 5;
/// Epochs of each distributed-trainer leg, warm-up included.
const DIST_EPOCHS: usize = WARMUP + 2;

/// `ProfiledBackend` kernel names folded into the declared kernel groups.
const KERNEL_GROUPS: [(&str, &[&str]); 8] = [
    ("matmul", &["matmul"]),
    ("linear_relu", &["linear_relu", "linear_leaky_relu"]),
    ("prepack", &["prepack"]),
    (
        "norm",
        &[
            "layer_norm",
            "batch_norm",
            "layer_norm_act",
            "batch_norm_act",
        ],
    ),
    ("gather_rows", &["gather_rows"]),
    ("scatter_add_rows", &["scatter_add_rows"]),
    ("segment_softmax", &["segment_softmax"]),
    (
        "elementwise",
        &[
            "add",
            "sub",
            "mul",
            "scale",
            "scale_rows",
            "add_bias_rows",
            "unary",
            "axpy",
        ],
    ),
];

fn dataset(spec: &TrainSpec, seed: u64) -> Dataset {
    let (train, val, test) = spec.split;
    let split = DatasetSpec {
        train,
        val,
        test,
        seed,
    };
    match spec.dataset {
        DatasetKind::Zinc => mega_datasets::zinc(&split),
        DatasetKind::Csl => mega_datasets::csl(&split),
    }
}

fn gnn_config(spec: &TrainSpec, ds: &Dataset, seed: u64) -> GnnConfig {
    let out_dim = match ds.task {
        Task::Regression => 1,
        Task::Classification { classes } => classes,
    };
    GnnConfig::new(spec.model, ds.node_vocab, ds.edge_vocab, out_dim)
        .with_hidden(spec.hidden)
        .with_layers(spec.layers)
        .with_heads(spec.heads)
        .with_seed(seed)
}

fn trainer(
    w: &Workload,
    spec: &TrainSpec,
    seed: u64,
    backend: &Arc<dyn Backend>,
    epochs: usize,
) -> Trainer {
    let t = Trainer::new(spec.engine)
        .with_backend(backend.clone())
        .with_batch_size(spec.batch)
        .with_epochs(epochs)
        .with_mega_config(MegaConfig::default().with_seed(seed))
        .with_parallelism(Parallelism::with_threads(w.threads));
    if spec.shuffle {
        t.with_shuffle(seed)
    } else {
        t
    }
}

/// One `run` of a trainer, as seen from outside.
struct Leg {
    /// Dataset generation plus everything before the first optimizer step.
    setup_s: f64,
    /// Wall clock per epoch, validation included.
    epoch_s: Vec<f64>,
    records: Vec<EpochRecord>,
    /// Optimizer steps taken.
    steps: u64,
    /// Train- and validation-loss bits, epoch by epoch.
    trajectory: Vec<u64>,
}

/// Generates the dataset, runs `train` on it inside a span, and checks the
/// losses. Every optimizer step of the run counts as one operation.
fn train_once(
    rec: &mut Recorder,
    spec: &TrainSpec,
    seed: u64,
    checks: &mut Checks,
    span: &str,
    train: impl FnOnce(&Dataset, GnnConfig) -> TrainingHistory,
) -> Leg {
    let (ds, generate_s) = timed(rec, "datasets.generate", |_| dataset(spec, seed));
    let config = gnn_config(spec, &ds, seed);
    let (history, _) = timed(rec, span, |_| train(&ds, config));
    let records = history.records;
    let first = records.first().expect("at least one epoch was requested");
    let setup_in_run = first.real_seconds - first.phases.total();
    let mut epoch_s = vec![first.phases.total()];
    epoch_s.extend(
        records
            .windows(2)
            .map(|w| w[1].real_seconds - w[0].real_seconds),
    );
    let steps = (records.len() * ds.train.len().div_ceil(spec.batch)) as u64;
    attempt(checks, steps);
    let finite = records
        .iter()
        .all(|r| r.train_loss.is_finite() && r.val_loss.is_finite());
    verdict(
        checks,
        &format!("{span}: every epoch's losses are finite"),
        finite,
        steps,
    );
    let trajectory = records
        .iter()
        .flat_map(|r| [r.train_loss.to_bits(), r.val_loss.to_bits()])
        .collect();
    Leg {
        setup_s: generate_s + setup_in_run,
        steps,
        epoch_s,
        records,
        trajectory,
    }
}

/// Checks `leg` against the longest trajectory seen so far on their common
/// prefix (the determinism contract: same seed, same bits), then keeps the
/// longer of the two as the reference.
fn same_trajectory(reference: &mut Vec<u64>, leg: &Leg, checks: &mut Checks, what: &str) {
    let n = reference.len().min(leg.trajectory.len());
    verdict(
        checks,
        &format!("{what}: loss trajectory repeats bit for bit"),
        reference[..n] == leg.trajectory[..n],
        leg.steps,
    );
    if leg.trajectory.len() > reference.len() {
        reference.clone_from(&leg.trajectory);
    }
}

fn train_edges(samples: &[GraphSample]) -> usize {
    samples.iter().map(|s| s.graph.edge_count()).sum()
}

/// One timed `preprocess_samples` over the training split, checked: every
/// schedule covers the configured share of its edges and resolves to a
/// valid chunk plan.
fn preprocess_once(
    rec: &mut Recorder,
    samples: &[GraphSample],
    config: &MegaConfig,
    par: &Parallelism,
    checks: &mut Checks,
) -> (Vec<AttentionSchedule>, f64) {
    let (result, seconds) = timed(rec, "core.preprocess_samples", |_| {
        preprocess_samples(samples, config, par)
    });
    attempt(checks, 1);
    let schedules = result.unwrap_or_default();
    let ok = schedules.len() == samples.len()
        && schedules.iter().all(|s| {
            s.band().coverage() >= config.coverage
                && ChunkPlan::for_band(s.band(), par).validate().is_ok()
        });
    verdict(
        checks,
        "preprocess_samples: coverage and chunk plans",
        ok,
        1,
    );
    (schedules, seconds)
}

fn untraced(
    w: &Workload,
    spec: &TrainSpec,
    opts: &RunOpts,
    rec: &mut Recorder,
    out: &mut RunOutput,
) {
    let clock = Stopwatch::start();
    let backend: Arc<dyn Backend> = Arc::new(SimdBackend::new());
    let trainer = trainer(w, spec, opts.seed, &backend, WARMUP + spec.timed_epochs);

    // One `Trainer::run` after another until the time is up: each gives a
    // set-up sample and `timed_epochs` operation samples, so both metrics
    // sample the whole run (this class of host drifts between faster and
    // slower phases that last seconds to minutes).
    let mut reference = Vec::new();
    let mut setup_s = Vec::new();
    let mut epoch_ms = Vec::new();
    let mut run_s = 0.0;
    while setup_s.is_empty() || clock.elapsed_seconds() + 0.5 * run_s < opts.seconds {
        let (leg, seconds) = timed(rec, "cycle", |rec| {
            train_once(
                rec,
                spec,
                opts.seed,
                &mut out.checks,
                "gnn.trainer_run",
                |ds, c| trainer.run(ds, c),
            )
        });
        same_trajectory(&mut reference, &leg, &mut out.checks, "training run");
        setup_s.push(leg.setup_s);
        epoch_ms.extend(leg.epoch_s[WARMUP..].iter().map(|s| s * 1e3));
        run_s = seconds;
    }

    out.loss_hash = Some(format!("{:016x}", fnv1a(reference.iter().copied())));
    out.metrics
        .insert("setup_s".into(), stats::median(&setup_s));
    out.metrics.insert(
        "work_per_s".into(),
        spec.split.0 as f64 / (stats::median(&epoch_ms) / 1e3),
    );
    out.samples.insert("setup_s".into(), setup_s);
    out.samples.insert("op_ms".into(), epoch_ms);
}

/// What the timed epochs alone added to an obs total: the full traced run
/// minus the run that stopped after the warm-up epochs (set-up, warm-up and
/// the final test evaluation are in both and cancel).
struct TimedEpochs<'a> {
    full: &'a Snapshot,
    warmup_only: &'a Snapshot,
}

impl TimedEpochs<'_> {
    fn count_of(&self, name: &str) -> f64 {
        obs_counter(self.full, name) - obs_counter(self.warmup_only, name)
    }

    fn nanos_of(&self, name: &str) -> f64 {
        obs_timing_ns(self.full, name) - obs_timing_ns(self.warmup_only, name)
    }

    /// `exec.profiled.<kernel>.<field>` summed over a kernel group.
    fn kernels(&self, kernels: &[&str], field: &str) -> f64 {
        kernels
            .iter()
            .map(|k| {
                let name = format!("exec.profiled.{k}.{field}");
                if field == "ns" {
                    self.nanos_of(&name)
                } else {
                    self.count_of(&name)
                }
            })
            .sum()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// The driver-timed layer calls of a traced run: dataset generation,
/// preprocessing and batch assembly of the training split, with their
/// exact work counts.
fn layer_calls(
    w: &Workload,
    spec: &TrainSpec,
    opts: &RunOpts,
    rec: &mut Recorder,
    out: &mut RunOutput,
) {
    let par = Parallelism::with_threads(w.threads);
    let mega = MegaConfig::default().with_seed(opts.seed);
    let (ds, generate_s) = timed(rec, "datasets.generate", |_| dataset(spec, opts.seed));
    let mut schedules = Vec::new();
    let preprocess_ms: Vec<f64> = (0..PREPROCESS_REPS)
        .map(|_| {
            let (s, seconds) = preprocess_once(rec, &ds.train, &mega, &par, &mut out.checks);
            schedules = s;
            seconds * 1e3
        })
        .collect();
    let (batches, assemble_s) = timed(rec, "gnn.batch_assemble", |_| {
        ds.train
            .chunks(spec.batch)
            .zip(schedules.chunks(spec.batch))
            .map(|(samples, scheds)| match spec.engine {
                EngineChoice::Baseline => Batch::baseline(samples),
                EngineChoice::Mega => Batch::mega_with(samples, scheds, &par),
            })
            .collect::<Vec<Batch>>()
    });

    let stats: Vec<_> = schedules.iter().map(AttentionSchedule::stats).collect();
    let total = |f: fn(&mega_core::schedule::ScheduleStats) -> usize| -> f64 {
        stats.iter().map(f).sum::<usize>() as f64
    };
    let covered: usize = schedules
        .iter()
        .map(|s| s.band().covered_edge_count())
        .sum();
    let m = &mut out.metrics;
    m.insert("datasets.generate_ms".into(), generate_s * 1e3);
    m.insert(
        "core.preprocess_samples_ms".into(),
        stats::median(&preprocess_ms),
    );
    m.insert(
        "core.preprocess_edges_per_s".into(),
        ratio(
            train_edges(&ds.train) as f64,
            stats::median(&preprocess_ms) / 1e3,
        ),
    );
    m.insert("core.path_len".into(), total(|s| s.path_len));
    m.insert(
        "core.path_expansion".into(),
        ratio(total(|s| s.path_len), total(|s| s.nodes)),
    );
    m.insert("core.revisits".into(), total(|s| s.revisits));
    m.insert("core.virtual_edges".into(), total(|s| s.virtual_edges));
    m.insert(
        "core.window".into(),
        mean(stats.iter().map(|s| s.window as f64)),
    );
    m.insert(
        "core.band_coverage".into(),
        ratio(covered as f64, total(|s| s.edges)),
    );
    m.insert("gnn.assemble_ms".into(), assemble_s * 1e3);
    m.insert(
        "gnn.msgs_per_batch".into(),
        mean(batches.iter().map(|b| b.indices.msg_count() as f64)),
    );
    m.insert(
        "gnn.rows_per_batch".into(),
        mean(batches.iter().map(|b| b.indices.work_rows as f64)),
    );
}

/// Two-worker gradient sharding against one worker, same sharded protocol
/// (the in-family base `DistTrainer` documents).
fn dist_leg(
    w: &Workload,
    spec: &TrainSpec,
    opts: &RunOpts,
    rec: &mut Recorder,
    out: &mut RunOutput,
) {
    let backend: Arc<dyn Backend> = Arc::new(SimdBackend::new());
    let mut p50_ms = Vec::new();
    let mut reference = Vec::new();
    for workers in [1, 2] {
        let dist = DistTrainer::new(trainer(w, spec, opts.seed, &backend, DIST_EPOCHS), workers);
        let leg = train_once(
            rec,
            spec,
            opts.seed,
            &mut out.checks,
            "dist.trainer_run",
            |ds, c| dist.run(ds, c),
        );
        same_trajectory(&mut reference, &leg, &mut out.checks, "distributed run");
        let epoch_ms: Vec<f64> = leg.epoch_s[WARMUP..].iter().map(|s| s * 1e3).collect();
        p50_ms.push(stats::median(&epoch_ms));
    }
    out.metrics
        .insert("dist.train.epoch_ms_p50".into(), p50_ms[1]);
    out.metrics
        .insert("dist.train.speedup".into(), ratio(p50_ms[0], p50_ms[1]));
}

fn traced(w: &Workload, spec: &TrainSpec, opts: &RunOpts, rec: &mut Recorder, out: &mut RunOutput) {
    let backend: Arc<dyn Backend> = Arc::new(SimdBackend::new());
    let profiled: Arc<dyn Backend> = Arc::new(ProfiledBackend::new(backend.clone()));
    let epochs = WARMUP + spec.timed_epochs;
    layer_calls(w, spec, opts, rec, out);

    // Reference leg: tracing off, plain backend.
    let plain = trainer(w, spec, opts.seed, &backend, epochs);
    let reference_leg = train_once(
        rec,
        spec,
        opts.seed,
        &mut out.checks,
        "gnn.trainer_run",
        |ds, c| plain.run(ds, c),
    );
    let mut reference = reference_leg.trajectory.clone();

    // Traced legs: the warm-up epochs alone, then the full run.
    let traced_leg = |epochs: usize, checks: &mut Checks, rec: &mut Recorder| {
        mega_obs::reset();
        mega_obs::set_enabled(true);
        let t = trainer(w, spec, opts.seed, &profiled, epochs);
        let leg = train_once(
            rec,
            spec,
            opts.seed,
            checks,
            "gnn.trainer_run.traced",
            |ds, c| t.run(ds, c),
        );
        mega_obs::set_enabled(false);
        (leg, mega_obs::snapshot())
    };
    let (warmup_leg, warmup_snap) = traced_leg(WARMUP, &mut out.checks, rec);
    let (leg, full_snap) = traced_leg(epochs, &mut out.checks, rec);
    out.obs_json = Some(full_snap.to_json(false));
    mega_obs::reset();
    same_trajectory(
        &mut reference,
        &warmup_leg,
        &mut out.checks,
        "traced warm-up run",
    );
    same_trajectory(&mut reference, &leg, &mut out.checks, "traced run");
    out.loss_hash = Some(format!("{:016x}", fnv1a(reference.iter().copied())));

    let delta = TimedEpochs {
        full: &full_snap,
        warmup_only: &warmup_snap,
    };
    let n_epochs = (epochs - WARMUP) as f64;
    let steps = n_epochs * (spec.split.0.div_ceil(spec.batch)) as f64;
    let records = &leg.records[WARMUP..];
    let phase_ms = |f: fn(&EpochRecord) -> f64| mean(records.iter().map(f)) * 1e3;
    let forward = phase_ms(|r| r.phases.forward);
    let backward = phase_ms(|r| r.phases.backward);
    let optimizer = phase_ms(|r| r.phases.optimizer);
    let evaluate = phase_ms(|r| r.phases.evaluate);
    let assemble = phase_ms(|r| r.phases.assemble);
    let epoch_ms: Vec<f64> = leg.epoch_s[WARMUP..].iter().map(|s| s * 1e3).collect();
    let wall = mean(epoch_ms.iter().copied());
    let reference_ms: Vec<f64> = reference_leg.epoch_s[WARMUP..]
        .iter()
        .map(|s| s * 1e3)
        .collect();

    let roofs = crate::host::roofs(rec, &*backend);
    let m = &mut out.metrics;
    let mut busy_ms = 0.0;
    for (group, kernels) in KERNEL_GROUPS {
        let group_ms = delta.kernels(kernels, "ns") / 1e6 / n_epochs;
        busy_ms += group_ms;
        m.insert(
            format!("exec.{group}.calls_per_step"),
            delta.kernels(kernels, "calls") / steps,
        );
        m.insert(
            format!("exec.{group}.bytes_per_step"),
            delta.kernels(kernels, "bytes") / steps,
        );
        m.insert(format!("exec.{group}.busy_ms_per_epoch"), group_ms);
    }
    let flops = delta.count_of("exec.profiled.matmul.flops");
    let gflops = ratio(flops, delta.nanos_of("exec.profiled.matmul.ns"));
    let intensity = ratio(flops, delta.count_of("exec.profiled.matmul.bytes"));
    let roof = roofs.gemm_gflops.min(intensity * roofs.triad_gbps);
    m.insert("exec.matmul.flops_per_step".into(), flops / steps);
    m.insert("exec.matmul.gflops".into(), gflops);
    m.insert("exec.matmul.roof_util".into(), ratio(gflops, roof));
    m.insert("exec.calibration.gemm_gflops".into(), roofs.gemm_gflops);
    m.insert("exec.calibration.triad_gbps".into(), roofs.triad_gbps);
    m.insert("exec.kernel_busy_frac".into(), ratio(busy_ms, wall));
    let (hits, misses) = (
        delta.count_of("exec.pack.hits"),
        delta.count_of("exec.pack.misses"),
    );
    m.insert("exec.pack.hit_rate".into(), ratio(hits, hits + misses));
    m.insert("exec.pack.misses_per_step".into(), misses / steps);
    let (hits, misses) = (
        delta.count_of("exec.pool.hits"),
        delta.count_of("exec.pool.misses"),
    );
    m.insert("exec.pool.hit_rate".into(), ratio(hits, hits + misses));
    let pool_hwm: f64 = full_snap
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("exec.pool.class") && k.ends_with(".resident_hwm_bytes"))
        .map(|(_, v)| *v)
        .sum();
    m.insert(
        "exec.pool.resident_hwm_mb".into(),
        pool_hwm / (1024.0 * 1024.0),
    );

    // Tape, planner and autograd bookkeeping plus the ops not routed
    // through `Backend`: what the tape-running phases spent outside any
    // kernel.
    let tensor_self = forward + backward + evaluate - busy_ms;
    m.insert("tensor.self_ms_per_epoch".into(), tensor_self);
    m.insert("tensor.self_frac".into(), ratio(tensor_self, wall));
    m.insert(
        "tensor.tape.ops_per_step".into(),
        delta.count_of("tensor.tape.ops") / steps,
    );
    m.insert(
        "tensor.plan.deferred_per_step".into(),
        delta.count_of("tensor.plan.deferred") / steps,
    );
    m.insert(
        "tensor.plan.flushes_per_step".into(),
        delta.count_of("tensor.plan.flushes") / steps,
    );
    m.insert(
        "tensor.plan.fusions_per_step".into(),
        delta.count_of("tensor.plan.fused") / steps,
    );
    m.insert("tensor.optimizer_ms_per_epoch".into(), optimizer);

    m.insert("gnn.forward_ms_per_epoch".into(), forward);
    m.insert("gnn.backward_ms_per_epoch".into(), backward);
    m.insert("gnn.evaluate_ms_per_epoch".into(), evaluate);
    m.insert("gnn.assemble_ms_per_epoch".into(), assemble);
    let phases = forward + backward + optimizer + evaluate + assemble;
    m.insert("gnn.unattributed_frac".into(), 1.0 - ratio(phases, wall));
    let pooled: Vec<f64> = reference_ms.iter().chain(&epoch_ms).copied().collect();
    m.insert("gnn.epoch_ms_p50".into(), stats::median(&reference_ms));
    m.insert("gnn.epoch_ms_p90".into(), stats::percentile(&pooled, 90.0));
    m.insert("gnn.first_epoch_ms".into(), reference_leg.epoch_s[0] * 1e3);
    m.insert(
        "obs.trace_overhead_frac".into(),
        ratio(stats::median(&epoch_ms), stats::median(&reference_ms)) - 1.0,
    );

    if mega_core::parallel::host_threads() >= 2 {
        dist_leg(w, spec, opts, rec, out);
    } else {
        for name in ["dist.train.epoch_ms_p50", "dist.train.speedup"] {
            out.skipped
                .insert(name.into(), "host has fewer than 2 cores".into());
        }
    }
}

/// Runs one training workload, traced or not.
pub(crate) fn run(w: &Workload, spec: &TrainSpec, opts: &RunOpts, rec: &mut Recorder) -> RunOutput {
    let mut out = RunOutput::default();
    out.checks.inject = opts.inject_fail;
    if opts.trace {
        traced(w, spec, opts, rec, &mut out);
    } else {
        untraced(w, spec, opts, rec, &mut out);
    }
    out
}
