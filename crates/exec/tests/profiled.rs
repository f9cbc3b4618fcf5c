//! Gates on the `ProfiledBackend` roofline decorator (CI job
//! `report-determinism` runs this in release).
//!
//! Three promises, one test each:
//!
//! 1. **Transparency** — wrapped kernels return bit-identical values to the
//!    inner backend across the kernel family, so attaching the profiler can
//!    never perturb training histories.
//! 2. **Deterministic attribution** — the `exec.profiled.*` calls/flops/
//!    bytes counters are pure functions of the launch shapes: two identical
//!    workloads produce identical counter sets (the property the
//!    byte-compared `mega report` CI gate stands on).
//! 3. **Overhead** — profiling a 512×512×512 GEMM harness costs ≤ 5%
//!    wall-clock versus the bare backend. Stated as a ratio of min-of-reps
//!    timings from the same run, so the gate is machine-speed invariant.
//!    `Instant` is used directly — integration tests are exempt from the
//!    `obs-routing` lint.

use mega_core::Parallelism;
use mega_exec::{
    Backend, Epilogue, NormKind, Operand, ProfiledBackend, ReferenceBackend, SimdBackend, Unary,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn sample(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Min-of-`reps` wall-clock of `f` in seconds.
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

#[test]
fn profiled_backend_is_transparent_and_deterministic() {
    let (n, k, m) = (17usize, 23usize, 13usize);
    let a = sample(n * k, 1);
    let b = sample(k * m, 2);
    let bias = sample(m, 3);
    let par = Parallelism::with_threads(1);

    // One profiled workload under enabled obs; capture the counters.
    let run_profiled = || {
        mega_obs::reset();
        mega_obs::set_enabled(true);
        let p = ProfiledBackend::new(Arc::new(ReferenceBackend));
        let (oa, ob) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        let mut mm = vec![0.0f32; n * m];
        p.gemm(oa, ob, n, k, m, Epilogue::None, &par, &mut mm);
        let mut lr = vec![0.0f32; n * m];
        p.gemm(oa, ob, n, k, m, Epilogue::BiasRelu(&bias), &par, &mut lr);
        let mut scratch = vec![0.0f32; n * m];
        // The norm descriptors: γ = bias-sized row reused as both affine
        // parameters, over the n × m scratch.
        for (kind, act) in [
            (NormKind::Layer, None),
            (NormKind::Batch, None),
            (NormKind::Layer, Some(Unary::Relu)),
            (NormKind::Batch, Some(Unary::LeakyRelu(0.1))),
        ] {
            p.norm(kind, &lr, &bias, &bias, n, m, 1e-5, act, &mut scratch);
        }
        let mut ew = vec![0.0f32; n * k];
        p.add(&a, &a, &mut ew);
        p.mul(&a, &a, &mut ew);
        p.unary(Unary::Tanh, &a, &mut ew);
        let index: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        let mut ga = vec![0.0f32; n * k];
        p.gather_rows(&a, n, k, &index, &mut ga);
        mega_obs::set_enabled(false);
        let counters: Vec<(String, u64)> = mega_obs::snapshot()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("exec.profiled."))
            .collect();
        mega_obs::reset();
        (mm, lr, ew, ga, counters)
    };
    let (mm, lr, ew, ga, counters) = run_profiled();

    // Transparency: bit-identical to the bare inner backend.
    let bare = ReferenceBackend;
    let (oa, ob) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
    let mut want = vec![0.0f32; n * m];
    bare.gemm(oa, ob, n, k, m, Epilogue::None, &par, &mut want);
    assert_eq!(
        mm, want,
        "matmul must be bit-identical through the profiler"
    );
    bare.gemm(oa, ob, n, k, m, Epilogue::BiasRelu(&bias), &par, &mut want);
    assert_eq!(lr, want, "linear_relu must be bit-identical");
    let mut want_ew = vec![0.0f32; n * k];
    bare.unary(Unary::Tanh, &a, &mut want_ew);
    assert_eq!(ew, want_ew, "unary must be bit-identical");
    let index: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
    let mut want_ga = vec![0.0f32; n * k];
    bare.gather_rows(&a, n, k, &index, &mut want_ga);
    assert_eq!(ga, want_ga, "gather_rows must be bit-identical");

    // Attribution: shape-derived and therefore identical across runs.
    let (nm, km, nm2) = (
        n as u64 * k as u64,
        k as u64 * m as u64,
        n as u64 * m as u64,
    );
    let get = |name: &str| {
        counters
            .iter()
            .find(|(c, _)| c == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("exec.profiled.matmul.calls"), 1);
    assert_eq!(
        get("exec.profiled.matmul.flops"),
        2 * n as u64 * k as u64 * m as u64
    );
    assert_eq!(get("exec.profiled.matmul.bytes"), 4 * (nm + km + nm2));
    assert_eq!(
        get("exec.profiled.linear_relu.flops"),
        2 * n as u64 * k as u64 * m as u64 + 2 * nm2,
        "linear_relu must charge the fused epilogue"
    );
    assert_eq!(
        get("exec.profiled.linear_relu.bytes"),
        4 * (nm + km + m as u64 + nm2),
        "linear_relu must charge the bias row"
    );
    // Counter names and work follow the descriptor: one name per epilogue
    // and per (norm kind, fused activation) pair.
    for (kernel, flops_per_elem) in [
        ("layer_norm", 8),
        ("batch_norm", 8),
        ("layer_norm_act", 9),
        ("batch_norm_act", 9),
    ] {
        assert_eq!(get(&format!("exec.profiled.{kernel}.calls")), 1, "{kernel}");
        assert_eq!(
            get(&format!("exec.profiled.{kernel}.flops")),
            flops_per_elem * nm2,
            "{kernel}"
        );
        assert_eq!(
            get(&format!("exec.profiled.{kernel}.bytes")),
            4 * (2 * nm2 + 2 * m as u64),
            "{kernel}"
        );
    }
    assert_eq!(get("exec.profiled.add.calls"), 1);
    assert_eq!(get("exec.profiled.mul.calls"), 1);
    assert_eq!(get("exec.profiled.unary.calls"), 1);
    assert_eq!(get("exec.profiled.gather_rows.calls"), 1);
    let (_, _, _, _, counters_again) = run_profiled();
    assert_eq!(
        counters, counters_again,
        "attribution counters must be deterministic run to run"
    );
}

#[test]
fn profiling_overhead_within_five_percent_on_gemm_harness() {
    // Tolerance: the acceptance gate is 1.05 in release; debug builds trade
    // optimization for compile time and jitter more, so tier-1 (debug) runs
    // get the scaling-test noise allowance instead. CI enforces 1.05 via
    // the release run in the report-determinism job.
    let tolerance = if cfg!(debug_assertions) { 1.25 } else { 1.05 };
    let (n, k, m) = (512usize, 512usize, 512usize);
    let a = sample(n * k, 21);
    let b = sample(k * m, 22);
    let par = Parallelism::with_threads(1);
    let bare: Arc<dyn Backend> = Arc::new(SimdBackend::new());
    let profiled = ProfiledBackend::new(Arc::clone(&bare));
    mega_obs::reset();
    mega_obs::set_enabled(true);
    let mut out = vec![0.0f32; n * m];
    // Alternating single runs, best of nine each: a product of a few
    // milliseconds is short enough that a host slowdown during one side's
    // block of runs would read as decoration overhead.
    let (mut t_bare, mut t_profiled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..9 {
        let (a, b) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        t_bare = t_bare.min(time_min(1, || {
            bare.gemm(a, b, n, k, m, Epilogue::None, &par, &mut out);
        }));
        t_profiled = t_profiled.min(time_min(1, || {
            profiled.gemm(a, b, n, k, m, Epilogue::None, &par, &mut out);
        }));
    }
    mega_obs::set_enabled(false);
    mega_obs::reset();
    let ratio = t_profiled / t_bare;
    assert!(
        ratio <= tolerance,
        "profiling must cost ≤5% on the 512³ GEMM harness: bare {:.1} ms, \
         profiled {:.1} ms (ratio {ratio:.3}, tolerance {tolerance})",
        t_bare * 1e3,
        t_profiled * 1e3,
    );
}

#[test]
fn measured_calibration_produces_positive_roofs() {
    let c = mega_exec::Calibration::measure(&ReferenceBackend);
    assert!(
        c.gemm_gflops.is_finite() && c.gemm_gflops > 0.0,
        "gemm roof: {}",
        c.gemm_gflops
    );
    assert!(
        c.triad_gbps.is_finite() && c.triad_gbps > 0.0,
        "triad roof: {}",
        c.triad_gbps
    );
}
