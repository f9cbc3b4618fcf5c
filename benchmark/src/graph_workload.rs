//! `ba50k-graph`: MEGA preprocessing of one Barabási–Albert graph, then
//! band steps (`Backend::banded_aggregate` + `Backend::banded_weight_grad`)
//! over the resulting band — the one workload where `core` traversal and
//! the `exec` band kernels do all of the work and `tensor`/`gnn` none.
//!
//! Set-up here is what the paper calls the one-time CPU pass: generate the
//! graph, preprocess it, fill the band state. An untraced run alternates
//! set-up and a few band steps until its time is up. A traced run does
//! fixed work and adds the stage-by-stage legs: preprocessing whole and as
//! traversal and schedule build, the two band kernels timed separately, the
//! 2-thread band step, the parallel traversal, the distributed band
//! executor, and schedule persistence.

use crate::spans::{timed, Recorder};
use crate::workloads::GraphSpec;
use crate::{
    attempt, obs_counter, obs_timing_ns, ratio, stats, verdict, Checks, RunOpts, RunOutput,
    RESULTS_DIR, WARMUP,
};
use mega_core::{
    persist, preprocess, traverse, traverse_parallel, AttentionSchedule, ChunkPlan, MegaConfig,
    Parallelism,
};
use mega_dist::{run_serial, BandJob, DistExecutor, ThreadExecutor};
use mega_exec::{Backend, ProfiledBackend, SimdBackend};
use mega_graph::Graph;
use mega_obs::Stopwatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-layer name prefixes this workload does not exercise: datasets, the
/// tape, the model, and every kernel only training calls.
pub(crate) const NOT_COVERED: &[&str] = &[
    "datasets.",
    "core.preprocess_samples_ms",
    "exec.matmul.",
    "exec.linear_relu.",
    "exec.prepack.",
    "exec.norm.",
    "exec.gather_rows.",
    "exec.scatter_add_rows.",
    "exec.segment_softmax.",
    "exec.elementwise.",
    "exec.kernel_busy_frac",
    "exec.pack.",
    "exec.pool.",
    "tensor.",
    "gnn.",
    "dist.train.",
];

/// Band steps per cycle of an untraced run: about as long as its set-up.
const STEPS_PER_CYCLE: usize = 6;
/// Repetitions of each traced leg.
const TRACED_REPS: usize = 5;

/// The band state: features, per-edge weights and an upstream gradient.
struct Inputs {
    graph: Graph,
    x: Vec<f32>,
    d_out: Vec<f32>,
    weights: Vec<f32>,
}

fn generate(nodes: usize, attach: usize, seed: u64) -> (Graph, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = mega_graph::generate::barabasi_albert(nodes, attach, &mut rng)
        .expect("BA parameters are fixed and valid");
    (graph, rng)
}

/// This workload's set-up, as its user pays it: graph generation, the
/// MEGA preprocessing pass, and the fills of the band state it sizes.
/// `None` when preprocessing failed (counted).
fn set_up(
    rec: &mut Recorder,
    spec: &GraphSpec,
    seed: u64,
    checks: &mut Checks,
) -> (Option<(AttentionSchedule, Inputs)>, f64) {
    timed(rec, "graph.set_up", |rec| {
        let ((graph, mut rng), _) = timed(rec, "graph.generate", |_| {
            generate(spec.nodes, spec.attach, seed)
        });
        let config = MegaConfig::default().with_seed(seed);
        let schedule = preprocess_once(rec, &graph, &config, checks).0?;
        let (inputs, _) = timed(rec, "graph.fill", |_| {
            let mut fill = |len: usize, lo: f32| -> Vec<f32> {
                (0..len).map(|_| rng.gen_range(lo..1.0)).collect()
            };
            let rows = schedule.band().len();
            let x = fill(rows * spec.dim, -1.0);
            let d_out = fill(rows * spec.dim, -1.0);
            let weights = fill(graph.edge_count(), 0.0);
            (x, d_out, weights)
        });
        let (x, d_out, weights) = inputs;
        Some((
            schedule,
            Inputs {
                graph,
                x,
                d_out,
                weights,
            },
        ))
    })
}

/// One timed `preprocess`, checked: coverage reaches the target and the
/// band resolves to a valid chunk plan.
fn preprocess_once(
    rec: &mut Recorder,
    graph: &Graph,
    config: &MegaConfig,
    checks: &mut Checks,
) -> (Option<AttentionSchedule>, f64) {
    let (result, seconds) = timed(rec, "core.preprocess", |_| preprocess(graph, config));
    attempt(checks, 1);
    let schedule = result.ok();
    let ok = schedule.as_ref().is_some_and(|s| {
        s.band().coverage() >= config.coverage
            && ChunkPlan::for_band(s.band(), &Parallelism::with_threads(1))
                .validate()
                .is_ok()
    });
    verdict(checks, "preprocess: coverage and chunk plan", ok, 1);
    (schedule, seconds)
}

/// Buffers and borrowed inputs of the band step.
struct BandStep<'a> {
    backend: &'a dyn Backend,
    schedule: &'a AttentionSchedule,
    inputs: &'a Inputs,
    dim: usize,
    out: Vec<f32>,
    d_weights: Vec<f32>,
}

fn band_step<'a>(
    backend: &'a dyn Backend,
    schedule: &'a AttentionSchedule,
    inputs: &'a Inputs,
    dim: usize,
) -> BandStep<'a> {
    BandStep {
        backend,
        schedule,
        inputs,
        dim,
        out: vec![0.0; schedule.band().len() * dim],
        d_weights: vec![0.0; schedule.working_graph().edge_count()],
    }
}

/// One forward aggregation plus weight gradient; returns the seconds of
/// each kernel. The output buffers are re-zeroed outside the timed calls.
fn step(rec: &mut Recorder, s: &mut BandStep<'_>, par: &Parallelism) -> (f64, f64) {
    let band = s.schedule.band();
    s.out.fill(0.0);
    s.d_weights.fill(0.0);
    let ((), forward_s) = timed(rec, "exec.banded_aggregate", |_| {
        s.backend
            .banded_aggregate(band, &s.inputs.x, s.dim, &s.inputs.weights, par, &mut s.out);
    });
    let edges = s.d_weights.len();
    let ((), grad_s) = timed(rec, "exec.banded_weight_grad", |_| {
        s.backend.banded_weight_grad(
            band,
            &s.inputs.x,
            &s.inputs.d_out,
            s.dim,
            edges,
            par,
            &mut s.d_weights,
        );
    });
    (forward_s, grad_s)
}

/// The bits of both outputs, folded: equal folds on equal inputs is the
/// determinism the band kernels promise for every thread count.
fn output_bits(s: &BandStep<'_>) -> u64 {
    s.out
        .iter()
        .chain(&s.d_weights)
        .fold(0u64, |acc, v| acc.rotate_left(5) ^ u64::from(v.to_bits()))
}

/// Runs `n` band steps on `par`, checking every step's output bits against
/// `expected` (set by the first step when `None`). Returns each step's
/// `(forward, weight-grad)` seconds.
fn band_steps(
    rec: &mut Recorder,
    s: &mut BandStep<'_>,
    par: &Parallelism,
    n: usize,
    expected: &mut Option<u64>,
    checks: &mut Checks,
) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| {
            let t = step(rec, s, par);
            attempt(checks, 1);
            let bits = output_bits(s);
            let want = *expected.get_or_insert(bits);
            verdict(
                checks,
                &format!("band step on {} thread(s): output bits repeat", par.threads),
                bits == want,
                1,
            );
            t
        })
        .collect()
}

fn untraced(spec: &GraphSpec, opts: &RunOpts, rec: &mut Recorder, out: &mut RunOutput) {
    let clock = Stopwatch::start();
    // The first set-up is cold (untouched pages) and is not sampled.
    let Some(mut current) = set_up(rec, spec, opts.seed, &mut out.checks).0 else {
        return; // counted as failed; nothing to step over
    };
    let backend = SimdBackend::new();
    let one = Parallelism::with_threads(1);
    let mut expected = None;
    {
        let mut state = band_step(&backend, &current.0, &current.1, spec.dim);
        band_steps(
            rec,
            &mut state,
            &one,
            WARMUP,
            &mut expected,
            &mut out.checks,
        );
    }

    // Cycles of [set-up, band steps] until the time is up, so that both
    // metrics sample the whole run: this class of host drifts between
    // faster and slower phases that last seconds to minutes.
    let mut setup_s = Vec::new();
    let mut step_ms = Vec::new();
    while setup_s.is_empty() || clock.elapsed_seconds() < opts.seconds {
        // One band state alive at a time, as a user of the kernels has.
        drop(current);
        let (fresh, seconds) = set_up(rec, spec, opts.seed, &mut out.checks);
        let Some(fresh) = fresh else { return };
        current = fresh;
        setup_s.push(seconds);
        let mut state = band_step(&backend, &current.0, &current.1, spec.dim);
        let timings = band_steps(
            rec,
            &mut state,
            &one,
            STEPS_PER_CYCLE,
            &mut expected,
            &mut out.checks,
        );
        step_ms.extend(timings.iter().map(|(f, g)| (f + g) * 1e3));
    }
    let (schedule, inputs) = &current;
    if mega_core::parallel::host_threads() >= 2 {
        // Two threads must produce the bits one thread did.
        let two = Parallelism::with_threads(2);
        let mut state = band_step(&backend, schedule, inputs, spec.dim);
        band_steps(rec, &mut state, &two, 1, &mut expected, &mut out.checks);
    }

    let covered = schedule.band().covered_edge_count() as f64;
    out.metrics
        .insert("setup_s".into(), stats::median(&setup_s));
    out.metrics.insert(
        "work_per_s".into(),
        covered / (stats::median(&step_ms) / 1e3),
    );
    out.samples.insert("setup_s".into(), setup_s);
    out.samples.insert("op_ms".into(), step_ms);
}

fn median_ms(seconds: impl Iterator<Item = f64>) -> f64 {
    stats::median(&seconds.map(|s| s * 1e3).collect::<Vec<_>>())
}

/// Saves, loads and re-serializes the schedule of a smaller BA graph: the
/// only caller of `persist` outside tests, tracked because load time grows
/// faster than the file.
fn persist_leg(spec: &GraphSpec, opts: &RunOpts, rec: &mut Recorder, out: &mut RunOutput) {
    let (small, _) = generate(spec.persist_nodes, spec.attach, opts.seed);
    let config = MegaConfig::default().with_seed(opts.seed);
    let Ok(schedule) = preprocess(&small, &config) else {
        verdict(
            &mut out.checks,
            "persist: preprocess of the small graph",
            false,
            1,
        );
        return;
    };
    let path = format!("{RESULTS_DIR}/persist-{}.json", std::process::id());
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR) {
        verdict(
            &mut out.checks,
            &format!("persist: cannot create {RESULTS_DIR}: {e}"),
            false,
            1,
        );
        return;
    }
    let (saved, save_s) = timed(rec, "core.persist.save", |_| {
        persist::save(&schedule, &path)
    });
    let (loaded, load_s) = timed(rec, "core.persist.load", |_| persist::load(&path));
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    // Best effort: the file is scratch, and a failed removal changes nothing measured.
    let _ = std::fs::remove_file(&path);
    let round_trip =
        saved.is_ok() && loaded.is_ok_and(|l| persist::to_json(&l) == persist::to_json(&schedule));
    verdict(
        &mut out.checks,
        "persist: round trip returns an equal schedule",
        round_trip,
        1,
    );
    out.metrics
        .insert("core.persist.bytes".into(), bytes as f64);
    out.metrics
        .insert("core.persist.save_ms".into(), save_s * 1e3);
    out.metrics
        .insert("core.persist.load_ms".into(), load_s * 1e3);
}

/// The 2-thread legs, or their refusal on a one-core host.
const TWO_CORE_METRICS: [&str; 9] = [
    "exec.banded.step_ms_p50_par",
    "exec.banded.thread_speedup",
    "core.plan_cache.hit_rate",
    "core.traverse_parallel_ms_p50",
    "dist.band_step_ms_p50",
    "dist.band_speedup",
    "dist.halo.bytes_per_step",
    "dist.halo.msgs_per_step",
    "dist.halo.wait_frac",
];

fn traced(spec: &GraphSpec, opts: &RunOpts, rec: &mut Recorder, out: &mut RunOutput) {
    let config = MegaConfig::default().with_seed(opts.seed);
    let (_, generate_s) = timed(rec, "graph.generate", |_| {
        generate(spec.nodes, spec.attach, opts.seed)
    });
    let Some((schedule, inputs)) = set_up(rec, spec, opts.seed, &mut out.checks).0 else {
        return;
    };

    // Reference band steps: tracing off, plain backend.
    let simd = SimdBackend::new();
    let one = Parallelism::with_threads(1);
    let mut expected = None;
    let reference = {
        let mut state = band_step(&simd, &schedule, &inputs, spec.dim);
        band_steps(
            rec,
            &mut state,
            &one,
            WARMUP + TRACED_REPS,
            &mut expected,
            &mut out.checks,
        )
        .split_off(WARMUP)
    };

    mega_obs::reset();
    mega_obs::set_enabled(true);
    // Preprocessing whole, then its two stages timed apart.
    let preprocess_s: Vec<f64> = (0..TRACED_REPS)
        .map(|_| preprocess_once(rec, &inputs.graph, &config, &mut out.checks).1)
        .collect();
    let mut traverse_s = Vec::new();
    let mut build_s = Vec::new();
    for _ in 0..TRACED_REPS {
        let (t, seconds) = timed(rec, "core.traverse", |_| traverse(&inputs.graph, &config));
        attempt(&mut out.checks, 1);
        verdict(&mut out.checks, "traverse succeeds", t.is_ok(), 1);
        let Ok(t) = t else { continue };
        traverse_s.push(seconds);
        let (_, seconds) = timed(rec, "core.schedule_build", |_| {
            AttentionSchedule::from_traversal(&inputs.graph, t)
        });
        build_s.push(seconds);
    }

    // The two band kernels, timed apart, under the profiling decorator.
    let profiled = ProfiledBackend::new(Arc::new(SimdBackend::new()));
    let mut state = band_step(&profiled, &schedule, &inputs, spec.dim);
    let serial = band_steps(
        rec,
        &mut state,
        &one,
        WARMUP + TRACED_REPS,
        &mut expected,
        &mut out.checks,
    )
    .split_off(WARMUP);
    let serial_snap = mega_obs::snapshot();

    let stats = schedule.stats();
    let m = &mut out.metrics;
    m.insert("graph.generate_ms".into(), generate_s * 1e3);
    m.insert(
        "core.preprocess_edges_per_s".into(),
        ratio(
            inputs.graph.edge_count() as f64,
            stats::median(&preprocess_s),
        ),
    );
    m.insert(
        "core.traverse_ms_p50".into(),
        median_ms(traverse_s.into_iter()),
    );
    m.insert(
        "core.schedule_build_ms_p50".into(),
        median_ms(build_s.into_iter()),
    );
    m.insert("core.path_len".into(), stats.path_len as f64);
    m.insert("core.path_expansion".into(), stats.expansion);
    m.insert("core.revisits".into(), stats.revisits as f64);
    m.insert("core.virtual_edges".into(), stats.virtual_edges as f64);
    m.insert("core.window".into(), stats.window as f64);
    m.insert("core.band_coverage".into(), stats.coverage);
    let forward_ms = median_ms(serial.iter().map(|t| t.0));
    m.insert("exec.banded_aggregate.ms_p50".into(), forward_ms);
    m.insert(
        "exec.banded_weight_grad.ms_p50".into(),
        median_ms(serial.iter().map(|t| t.1)),
    );
    let bytes_per_call = ratio(
        obs_counter(&serial_snap, "exec.profiled.banded_aggregate.bytes"),
        obs_counter(&serial_snap, "exec.profiled.banded_aggregate.calls"),
    );
    m.insert(
        "exec.banded_aggregate.gbps".into(),
        ratio(bytes_per_call, forward_ms * 1e6),
    );
    let roofs = crate::host::roofs(rec, &simd);
    m.insert("exec.calibration.gemm_gflops".into(), roofs.gemm_gflops);
    m.insert("exec.calibration.triad_gbps".into(), roofs.triad_gbps);
    let serial_ms = median_ms(serial.iter().map(|t| t.0 + t.1));
    let reference_ms = median_ms(reference.iter().map(|t| t.0 + t.1));
    m.insert("exec.banded.step_ms_p50".into(), reference_ms);
    m.insert(
        "obs.trace_overhead_frac".into(),
        ratio(serial_ms, reference_ms) - 1.0,
    );

    if mega_core::parallel::host_threads() >= 2 {
        let two = Parallelism::with_threads(2);
        let parallel = band_steps(
            rec,
            &mut state,
            &two,
            WARMUP + TRACED_REPS,
            &mut expected,
            &mut out.checks,
        )
        .split_off(WARMUP);
        let snap = mega_obs::snapshot();
        let parallel_ms = median_ms(parallel.iter().map(|t| t.0 + t.1));
        let (hits, misses) = (
            obs_counter(&snap, "core.parallel.plan_cache.hits"),
            obs_counter(&snap, "core.parallel.plan_cache.misses"),
        );
        let mut parallel_traverse_s = Vec::new();
        for _ in 0..TRACED_REPS.min(3) {
            let (t, seconds) = timed(rec, "core.traverse_parallel", |_| {
                traverse_parallel(&inputs.graph, &config, 2, &two)
            });
            attempt(&mut out.checks, 1);
            verdict(&mut out.checks, "traverse_parallel succeeds", t.is_ok(), 1);
            parallel_traverse_s.push(seconds);
        }
        let m = &mut out.metrics;
        m.insert("exec.banded.step_ms_p50_par".into(), parallel_ms);
        m.insert(
            "exec.banded.thread_speedup".into(),
            ratio(serial_ms, parallel_ms),
        );
        m.insert(
            "core.plan_cache.hit_rate".into(),
            ratio(hits, hits + misses),
        );
        m.insert(
            "core.traverse_parallel_ms_p50".into(),
            median_ms(parallel_traverse_s.into_iter()),
        );
        dist_leg(spec, &schedule, &inputs, rec, out);
    } else {
        for name in TWO_CORE_METRICS {
            out.skipped
                .insert(name.into(), "host has fewer than 2 cores".into());
        }
    }
    mega_obs::set_enabled(false);
    out.obs_json = Some(mega_obs::snapshot().to_json(false));
    mega_obs::reset();
    persist_leg(spec, opts, rec, out);
}

/// The distributed band executor: two segment workers with halo exchange
/// against the serial oracle, same multi-step job.
fn dist_leg(
    spec: &GraphSpec,
    schedule: &AttentionSchedule,
    inputs: &Inputs,
    rec: &mut Recorder,
    out: &mut RunOutput,
) {
    let band = schedule.band();
    let job = BandJob {
        band,
        x0: &inputs.x,
        dim: spec.dim,
        weights: &inputs.weights,
        edge_count: schedule.working_graph().edge_count(),
        steps: spec.dist_steps,
        damping: 0.8,
    };
    let executor = ThreadExecutor::new(2);
    let before = mega_obs::snapshot();
    let mut serial_s = Vec::new();
    let mut threaded_s = Vec::new();
    for _ in 0..3 {
        let (oracle, seconds) = timed(rec, "dist.run_serial", |_| run_serial(&job));
        serial_s.push(seconds);
        let (run, seconds) = timed(rec, "dist.thread_executor_run", |_| executor.run(&job));
        threaded_s.push(seconds);
        attempt(&mut out.checks, job.steps as u64);
        let same = |a: &[f32], b: &[f32]| {
            a.iter()
                .map(|v| v.to_bits())
                .eq(b.iter().map(|v| v.to_bits()))
        };
        verdict(
            &mut out.checks,
            "ThreadExecutor result equals run_serial bit for bit",
            same(&oracle.x, &run.x) && same(&oracle.dw, &run.dw),
            job.steps as u64,
        );
    }
    let after = mega_obs::snapshot();
    let added = |name: &str| obs_counter(&after, name) - obs_counter(&before, name);
    let steps = added("dist.steps");
    let per_step = |seconds: &[f64]| stats::median(seconds) * 1e3 / job.steps as f64;
    let m = &mut out.metrics;
    m.insert("dist.band_step_ms_p50".into(), per_step(&threaded_s));
    m.insert(
        "dist.band_speedup".into(),
        ratio(per_step(&serial_s), per_step(&threaded_s)),
    );
    m.insert(
        "dist.halo.bytes_per_step".into(),
        ratio(added("dist.halo.bytes"), steps),
    );
    m.insert(
        "dist.halo.msgs_per_step".into(),
        ratio(added("dist.halo.msgs"), steps),
    );
    m.insert(
        "dist.halo.wait_frac".into(),
        ratio(
            obs_timing_ns(&after, "dist.halo.wait_ns")
                - obs_timing_ns(&before, "dist.halo.wait_ns"),
            obs_timing_ns(&after, "dist.step_ns") - obs_timing_ns(&before, "dist.step_ns"),
        ),
    );
}

/// Runs the graph workload, traced or not.
pub(crate) fn run(spec: &GraphSpec, opts: &RunOpts, rec: &mut Recorder) -> RunOutput {
    let mut out = RunOutput::default();
    out.checks.inject = opts.inject_fail;
    if opts.trace {
        traced(spec, opts, rec, &mut out);
    } else {
        untraced(spec, opts, rec, &mut out);
    }
    out
}
