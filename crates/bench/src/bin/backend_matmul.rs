//! Dense-GEMM backend micro-benchmark and CI performance gate.
//!
//! Times both execution backends (reference loops, SIMD at one tier) and a
//! plain Rust loop nest across square sizes, single-threaded (the packing
//! and vectorization wins are per-core, not parallelism), plus a sweep of
//! every SIMD tier the host runs at the gate size. The `simd` rows run the
//! tier a `--baseline` records, else the widest the host has
//! (`SimdBackend::new`); the table and the JSON name it. Results land in
//! `target/backend_matmul.json`, never in the committed baseline
//! `bench_results/backend_matmul.json`: re-taking the baseline is copying
//! that file over it.
//!
//! Gates (process exits non-zero on violation):
//!
//! * simd must beat reference on the 512×512 GEMM;
//! * with `--baseline <json> [--tolerance <frac>]`, no `simd` timing may
//!   regress more than the tolerance (default 15%) against the committed
//!   baseline — the CI bench-regression gate. Timings are compared as
//!   ratios to the same run's `loop` time at that size ([`plain_loop`]),
//!   so the gate tracks how much the tile wins by, not absolute wall-clock
//!   — it holds across machines of different speeds and under
//!   noisy-neighbour CI runners. The baseline's tier must be on the host.

use mega_bench::{fmt, TableWriter};
use mega_core::Parallelism;
use mega_exec::{Backend, Epilogue, Operand, ReferenceBackend, SimdBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const SIZES: [usize; 4] = [64, 128, 256, 512];
/// The size whose timings gate CI.
const GATE_SIZE: usize = 512;
const REPS: usize = 7;
/// The gated pair (`loop`, `simd`) takes turns past `REPS` until the two
/// have run this long at each size, so a 60 µs product gets as many
/// chances at a quiet moment of the host as a 15 ms one.
const GATED_BUDGET_MS: f64 = 300.0;
/// The row name of [`plain_loop`], the regression gate's divisor.
const DIVISOR: &str = "loop";

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
    tier: String,
    rows: Vec<Row>,
}

/// Each job's best wall time over at least `REPS` turns, and more turns
/// until the jobs have run `budget_ms` in all. The jobs take turns rep by
/// rep so that all of them meet the same host phases. The minimum is the
/// noise-robust statistic here: scheduler preemption and CPU steal only
/// ever *add* time, so the fastest reap is the closest observation of the
/// kernel's true cost.
fn best_ms(jobs: &mut [Box<dyn FnMut() + '_>], budget_ms: f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; jobs.len()];
    let (mut reps, mut spent) = (0, 0.0);
    while reps < REPS || spent < budget_ms {
        for (job, best) in jobs.iter_mut().zip(&mut best) {
            let t = Instant::now();
            job();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            *best = best.min(ms);
            spent += ms;
        }
        reps += 1;
    }
    best
}

/// One `n³` product on `backend`, writing `out`.
fn gemm_job<'a>(
    backend: &'a dyn Backend,
    a: &'a [f32],
    b: &'a [f32],
    n: usize,
) -> Box<dyn FnMut() + 'a> {
    let par = Parallelism::with_threads(1);
    let (a, b) = (Operand::RowMajor(a), Operand::RowMajor(b));
    let mut out = vec![0.0f32; n * n];
    Box::new(move || {
        backend.gemm(a, b, n, n, n, Epilogue::None, &par, &mut out);
        std::hint::black_box(&out);
    })
}

/// The gate's divisor: the `n³` product as a plain Rust loop nest, one
/// unfused `acc + a·b` per term, which the compiler vectorizes across
/// columns at the target's baseline width. It sits outside every backend,
/// so no kernel change moves it, while the host's clock, caches and vector
/// unit move it with the tile it divides. (The reference cannot divide: on
/// x86 its `mul_add` is one libm call per term, call-bound, not
/// compute-bound, and its ratio to the tile spreads past any tolerance.)
fn plain_loop(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    for (a_row, out_row) in a.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        out_row.fill(0.0);
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
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

/// Checks every `simd` size present in both runs against the allowed
/// regression; returns how many sizes it compared and the offending
/// descriptions.
///
/// Times are normalized to the [`DIVISOR`] row at the same size *within
/// each run* before comparing, so a uniformly slower or faster machine
/// cancels out and only changes in the tile's speedup over the plain loop
/// trip the gate. The reference rows are covered by the absolute
/// `GATE_SIZE` ordering check instead.
fn regressions(current: &[Row], baseline: &[Row], tolerance: f64) -> (usize, Vec<String>) {
    let (mut compared, mut out) = (0, Vec::new());
    for b in baseline {
        if b.backend != "simd" {
            continue;
        }
        let (Some(now), Some(now_div), Some(base_div)) = (
            lookup(current, b.size, &b.backend),
            lookup(current, b.size, DIVISOR),
            lookup(baseline, b.size, DIVISOR),
        ) else {
            continue;
        };
        compared += 1;
        let ratio = (now / now_div) / (b.ms / base_div);
        if ratio > 1.0 + tolerance {
            out.push(format!(
                "{} {}x{}: {:.3}x {DIVISOR} vs baseline {:.3}x ({:+.1}%, tolerance {:.0}%)",
                b.backend,
                b.size,
                b.size,
                now / now_div,
                b.ms / base_div,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    (compared, out)
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
    let base: Option<Baseline> = baseline_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("baseline {path} unreadable: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("baseline {path} unparsable: {e}"))
    });

    // Like is compared with like: the gate times the tier its baseline was
    // taken on.
    let simd = match &base {
        None => SimdBackend::new(),
        Some(base) => match SimdBackend::all_on_host()
            .into_iter()
            .find(|b| b.tier() == base.tier)
        {
            Some(b) => b,
            None => {
                mega_obs::error!("the baseline's tier `{}` is not on this host", base.tier);
                return ExitCode::FAILURE;
            }
        },
    };
    let tier = simd.tier();

    let mut rng = StdRng::seed_from_u64(42);
    mega_obs::data!("simd tier: {tier} ({} lanes)", simd.lane_width());
    let simd_header = format!("simd-{tier}(ms)");
    let mut table = TableWriter::new(&[
        "size",
        "reference(ms)",
        "loop(ms)",
        &simd_header,
        "reference/simd",
        "loop/simd",
    ]);
    let mut rows = Vec::new();
    for &n in &SIZES {
        let a = square(n, &mut rng);
        let b = square(n, &mut rng);
        let mut out = vec![0.0f32; n * n];
        let reference = best_ms(&mut [gemm_job(&ReferenceBackend, &a, &b, n)], 0.0)[0];
        let gated = best_ms(
            &mut [
                Box::new(|| {
                    plain_loop(&a, &b, n, &mut out);
                    std::hint::black_box(&out);
                }),
                gemm_job(&simd, &a, &b, n),
            ],
            GATED_BUDGET_MS,
        );
        let ms = [reference, gated[0], gated[1]];
        for (name, &t) in ["reference", DIVISOR, "simd"].iter().zip(&ms) {
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
            fmt(ms[2], 3),
            fmt(ms[0] / ms[2], 2),
            fmt(ms[1] / ms[2], 2),
        ]);
    }
    table.print();

    // Tier sweep at the gate size: every native tier the host has, then
    // the portable tier.
    let n = GATE_SIZE;
    let a = square(n, &mut rng);
    let b = square(n, &mut rng);
    let tiers = SimdBackend::all_on_host();
    let mut jobs: Vec<_> = tiers.iter().map(|be| gemm_job(be, &a, &b, n)).collect();
    let sweep_ms = best_ms(&mut jobs, 0.0);
    let mut sweep_table = TableWriter::new(&["tier", "lanes", "ms", "gflops"]);
    let mut lane_sweep = Vec::new();
    for (be, &ms) in tiers.iter().zip(&sweep_ms) {
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

    if let Some(base) = base {
        let (compared, regs) = regressions(&rows, &base.rows, tolerance);
        if compared == 0 {
            mega_obs::error!("FAIL: the baseline has no `simd` and `{DIVISOR}` rows to compare");
            failed = true;
        } else if regs.is_empty() {
            mega_obs::data!(
                "regression gate: all {compared} {tier} timings within {:.0}% of the baseline",
                tolerance * 100.0
            );
        } else {
            for r in &regs {
                mega_obs::error!("FAIL (regression): {r}");
            }
            failed = true;
        }
    }

    let report = Report {
        threads: 1,
        reps: REPS,
        tier: tier.to_string(),
        rows,
        lane_sweep,
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    std::fs::create_dir_all(&dir).expect("target directory must be creatable");
    let path = dir.join("backend_matmul.json");
    let json = serde_json::to_string_pretty(&report).expect("the report serializes");
    std::fs::write(&path, json).expect("result file must be writable");
    mega_obs::info!("\n[saved {}]", path.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
