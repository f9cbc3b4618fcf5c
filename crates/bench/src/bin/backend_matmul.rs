//! Dense-GEMM backend micro-benchmark and CI performance gate.
//!
//! Times both execution backends (reference loops, SIMD at the widest tier
//! the host has) across square sizes, single-threaded (the packing and
//! vectorization wins are per-core, not parallelism), plus a sweep of every
//! SIMD tier the host runs at the gate size. The table and the JSON name
//! the native tier behind the `simd` rows. Results land in
//! `bench_results/backend_matmul.json`.
//!
//! Gates (process exits non-zero on violation):
//!
//! * simd must beat reference on the 512×512 GEMM;
//! * with `--baseline <json> [--tolerance <frac>]`, no (backend, size)
//!   timing may regress more than the tolerance (default 15%) against the
//!   committed baseline — the CI bench-regression gate. Timings are
//!   compared as ratios to the same run's reference time at that size, so
//!   the gate tracks how much each optimized backend wins by, not absolute
//!   wall-clock — it holds across machines of different speeds and under
//!   noisy-neighbour CI runners.

use mega_bench::{fmt, save_json, TableWriter};
use mega_core::Parallelism;
use mega_exec::{Backend, Epilogue, Operand, ReferenceBackend, SimdBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

const SIZES: [usize; 4] = [64, 128, 256, 512];
/// The size whose timings gate CI.
const GATE_SIZE: usize = 512;
const REPS: usize = 7;

#[derive(Serialize, Deserialize)]
struct Row {
    size: usize,
    backend: String,
    ms: f64,
    gflops: f64,
}

#[derive(Serialize)]
struct LaneRow {
    tier: String,
    lanes: usize,
    ms: f64,
    gflops: f64,
}

#[derive(Serialize)]
struct Report {
    threads: usize,
    reps: usize,
    /// The SIMD tier the `simd` rows ran on (`avx512`, `avx`, `portable`).
    tier: String,
    rows: Vec<Row>,
    lane_sweep: Vec<LaneRow>,
}

/// The part of a committed report the regression gate reads.
#[derive(Deserialize)]
struct Baseline {
    rows: Vec<Row>,
}

/// Best-of-`REPS` wall time. The minimum is the noise-robust statistic
/// here: scheduler preemption and CPU steal only ever *add* time, so the
/// fastest reap is the closest observation of the kernel's true cost.
fn best_ms<F: FnMut()>(mut f: F) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn time_backend(backend: &dyn Backend, a: &[f32], b: &[f32], n: usize) -> f64 {
    let par = Parallelism::with_threads(1);
    let (a, b) = (Operand::RowMajor(a), Operand::RowMajor(b));
    let mut out = vec![0.0f32; n * n];
    best_ms(|| {
        backend.gemm(a, b, n, n, n, Epilogue::None, &par, &mut out);
        std::hint::black_box(&out);
    })
}

fn gflops(n: usize, ms: f64) -> f64 {
    2.0 * (n as f64).powi(3) / (ms * 1e-3) / 1e9
}

fn square(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// The recorded time for `(size, backend)` in a row set.
fn lookup(rows: &[Row], size: usize, backend: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.size == size && r.backend == backend)
        .map(|r| r.ms)
}

/// Checks every optimized (backend, size) pair present in both runs against
/// the allowed regression; returns the offending descriptions.
///
/// Times are normalized to the reference backend at the same size *within
/// each run* before comparing, so a uniformly slower or faster machine
/// cancels out and only changes in the backend's speedup over reference
/// trip the gate. The reference rows themselves are the normalizer and are
/// covered by the absolute `GATE_SIZE` ordering checks instead.
fn regressions(current: &[Row], baseline: &[Row], tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    for b in baseline {
        if b.backend == "reference" {
            continue;
        }
        let (Some(now), Some(now_ref), Some(base_ref)) = (
            lookup(current, b.size, &b.backend),
            lookup(current, b.size, "reference"),
            lookup(baseline, b.size, "reference"),
        ) else {
            continue;
        };
        let ratio = (now / now_ref) / (b.ms / base_ref);
        if ratio > 1.0 + tolerance {
            out.push(format!(
                "{} {}x{}: {:.3}x reference vs baseline {:.3}x ({:+.1}%, tolerance {:.0}%)",
                b.backend,
                b.size,
                b.size,
                now / now_ref,
                b.ms / base_ref,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    mega_obs::report::init_from_env();
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 0.15f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline_path = args.next(),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .expect("--tolerance takes a fraction, e.g. 0.15");
            }
            other => {
                mega_obs::error!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(42);
    let simd = SimdBackend::new();
    let tier = simd.tier();
    let backends: [(&str, &dyn Backend); 2] = [("reference", &ReferenceBackend), ("simd", &simd)];

    mega_obs::data!("simd tier: {tier} ({} lanes)", simd.lane_width());
    let simd_header = format!("simd-{tier}(ms)");
    let mut table = TableWriter::new(&["size", "reference(ms)", &simd_header, "reference/simd"]);
    let mut rows = Vec::new();
    for &n in &SIZES {
        let a = square(n, &mut rng);
        let b = square(n, &mut rng);
        let mut ms = Vec::new();
        for (name, backend) in backends {
            let t = time_backend(backend, &a, &b, n);
            ms.push(t);
            rows.push(Row {
                size: n,
                backend: name.to_string(),
                ms: t,
                gflops: gflops(n, t),
            });
        }
        table.row(&[
            fmt(n as f64, 0),
            fmt(ms[0], 3),
            fmt(ms[1], 3),
            fmt(ms[0] / ms[1], 2),
        ]);
    }
    table.print();

    // Tier sweep at the gate size: every native tier the host has, then
    // the portable scalar-lane fallback at each supported width.
    let n = GATE_SIZE;
    let a = square(n, &mut rng);
    let b = square(n, &mut rng);
    let mut sweep_table = TableWriter::new(&["tier", "lanes", "ms", "gflops"]);
    let mut lane_sweep = Vec::new();
    for be in SimdBackend::all_on_host() {
        let ms = time_backend(&be, &a, &b, n);
        sweep_table.row(&[
            be.tier().to_string(),
            fmt(be.lane_width() as f64, 0),
            fmt(ms, 3),
            fmt(gflops(n, ms), 2),
        ]);
        lane_sweep.push(LaneRow {
            tier: be.tier().to_string(),
            lanes: be.lane_width(),
            ms,
            gflops: gflops(n, ms),
        });
    }
    mega_obs::data!("\ntier sweep at {n}x{n}:");
    sweep_table.print();

    let reference = lookup(&rows, GATE_SIZE, "reference").expect("gate row present");
    let simd_ms = lookup(&rows, GATE_SIZE, "simd").expect("gate row present");
    mega_obs::data!(
        "{GATE_SIZE}x{GATE_SIZE} gate: reference {:.3} ms, simd ({tier}) {:.3} ms",
        reference,
        simd_ms
    );

    let mut failed = false;
    if simd_ms >= reference {
        mega_obs::error!("FAIL: simd did not beat reference at {GATE_SIZE}x{GATE_SIZE}");
        failed = true;
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("baseline {path} unreadable: {e}"));
        let base: Baseline = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("baseline {path} unparsable: {e}"));
        let regs = regressions(&rows, &base.rows, tolerance);
        if regs.is_empty() {
            mega_obs::data!(
                "regression gate: all {} baseline timings within {:.0}%",
                base.rows.len(),
                tolerance * 100.0
            );
        } else {
            for r in &regs {
                mega_obs::error!("FAIL (regression): {r}");
            }
            failed = true;
        }
    }

    save_json(
        "backend_matmul",
        &Report {
            threads: 1,
            reps: REPS,
            tier: tier.to_string(),
            rows,
            lane_sweep,
        },
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
