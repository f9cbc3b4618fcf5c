//! Wall-clock equivalence-and-scaling gate for the intra-op threaded GEMM
//! and the band engine (the scaling steps of CI job `equivalence`).
//!
//! Two halves, mirroring the two promises the threading work makes:
//!
//! 1. **Bit-identity** — threads = {1, 4} (pinned past the host-core clamp,
//!    so the fan-out really runs) produce bit-identical results to the
//!    serial kernel over a shapes × backends grid, for both the plain
//!    matmul and the fused bias-ReLU epilogue.
//! 2. **Scaling ratios** — wall-clock gates stated as *ratios between two
//!    runs on the same machine*, so they are machine-speed invariant:
//!    a slow box scales both numerator and denominator. On a multi-core
//!    host the threaded 512×512×512 GEMM must strictly beat serial and the
//!    band engine at `threads = 4` must not lose to `threads = 1`; on a
//!    single-core host (where `Parallelism` clamps the worker count and
//!    both configs run the same serial code) the gates degrade to
//!    "within noise tolerance" — which is itself the regression test for
//!    the clamp: before it, 4 requested threads on one core cost 1.7×.
//!
//! The ratio legs are `#[ignore]`d: inside a plain `cargo test`, sibling
//! test binaries and threads share the cores and the ratios measure them.
//! CI's `equivalence` job runs them alone (`--include-ignored
//! --test-threads=1`); the bit-identity legs run everywhere.
//!
//! Timing uses the min over several repetitions: the minimum is the run
//! least disturbed by scheduler noise, and ratios of minima are the most
//! stable statistic a shared CI box offers. `Instant` is used directly —
//! integration tests are exempt from the `obs-routing` lint, and a timing
//! gate is exactly the case where the raw clock is the right tool.

use mega_core::band::BandMask;
use mega_core::config::{MegaConfig, WindowPolicy};
use mega_core::parallel::{host_threads, Parallelism};
use mega_core::traversal::traverse;
use mega_exec::kernels::{self, BandLanes};
use mega_exec::{Backend, Epilogue, Operand, ReferenceBackend, SimdBackend};
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Noise tolerance for "must not be slower" gates: two runs of the same
/// work on a quiet box agree within a few percent; 25% headroom keeps the
/// gate meaningful (the regression this guards against was 1.7×) without
/// flaking on a busy one.
const NOISE_TOLERANCE: f64 = 1.25;

fn sample(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect()
}

/// Every backend under test, with a label for assert messages.
fn backends() -> Vec<(&'static str, Box<dyn Backend>)> {
    vec![
        ("reference", Box::new(ReferenceBackend)),
        ("simd-auto", Box::new(SimdBackend::new())),
        ("simd-portable", Box::new(SimdBackend::portable())),
    ]
}

/// Median-free min-of-`reps` wall-clock of `f` in seconds.
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
fn threaded_gemm_bit_identical_to_serial_across_backends() {
    // Shapes straddling the tile sizes and the parallel flop cutoff
    // (1 << 17 multiply-adds): the first two stay serial, the rest fan out
    // when pinned past one worker.
    for &(n, k, m) in &[
        (3usize, 5usize, 4usize),
        (33, 17, 40),
        (64, 64, 64),
        (127, 33, 65),
        (200, 96, 50),
    ] {
        let a = sample(n * k, (n * 1000 + k) as u64);
        let b = sample(k * m, (k * 1000 + m) as u64);
        let mut serial = vec![0.0f32; n * m];
        kernels::matmul(
            Operand::RowMajor(&a),
            Operand::RowMajor(&b),
            n,
            k,
            m,
            &mut serial,
        );
        for (name, backend) in backends() {
            for threads in [1usize, 4] {
                let par = Parallelism::pinned(threads);
                let mut got = vec![0.0f32; n * m];
                let (oa, ob) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
                backend.gemm(oa, ob, n, k, m, Epilogue::None, &par, &mut got);
                for (i, (g, s)) in got.iter().zip(&serial).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        s.to_bits(),
                        "{name} {n}x{k}x{m} threads={threads} element {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn threaded_linear_relu_bit_identical_to_serial_epilogue() {
    let (n, k, m) = (120usize, 96usize, 70usize);
    let x = sample(n * k, 11);
    let w = sample(k * m, 12);
    let bias = sample(m, 13);
    let mut serial = vec![0.0f32; n * m];
    kernels::matmul(
        Operand::RowMajor(&x),
        Operand::RowMajor(&w),
        n,
        k,
        m,
        &mut serial,
    );
    kernels::epilogue(Epilogue::BiasRelu(&bias), &mut serial, m);
    for (name, backend) in backends() {
        for threads in [1usize, 4] {
            let par = Parallelism::pinned(threads);
            let mut got = vec![0.0f32; n * m];
            let (ox, ow) = (Operand::RowMajor(&x), Operand::RowMajor(&w));
            backend.gemm(ox, ow, n, k, m, Epilogue::BiasRelu(&bias), &par, &mut got);
            for (g, s) in got.iter().zip(&serial) {
                assert_eq!(g.to_bits(), s.to_bits(), "{name} threads={threads}");
            }
        }
    }
}

#[test]
#[ignore = "wall-clock ratio; CI job equivalence runs it with --include-ignored --test-threads=1"]
fn threaded_gemm_beats_serial_at_512() {
    let (n, k, m) = (512usize, 512usize, 512usize);
    let a = sample(n * k, 21);
    let b = sample(k * m, 22);
    let serial = Parallelism::with_threads(1);
    let threaded = Parallelism::with_threads(4);
    for (name, backend) in [
        ("reference", Box::new(ReferenceBackend) as Box<dyn Backend>),
        ("simd", Box::new(SimdBackend::new())),
    ] {
        let mut out = vec![0.0f32; n * m];
        let (oa, ob) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        let t1 = time_min(3, || {
            backend.gemm(oa, ob, n, k, m, Epilogue::None, &serial, &mut out);
        });
        let t4 = time_min(3, || {
            backend.gemm(oa, ob, n, k, m, Epilogue::None, &threaded, &mut out);
        });
        let ratio = t4 / t1;
        if host_threads() >= 2 {
            assert!(
                ratio < 1.0,
                "{name}: threads=4 GEMM must strictly beat serial at \
                 512x512x512 on a {}-core host: serial {:.1} ms, threaded \
                 {:.1} ms (ratio {ratio:.2})",
                host_threads(),
                t1 * 1e3,
                t4 * 1e3,
            );
        } else {
            // Single core: the clamp routes both configs through the same
            // serial code, so the only thing to gate is that requesting
            // threads costs nothing.
            assert!(
                ratio <= NOISE_TOLERANCE,
                "{name}: threads=4 must not be slower than serial on a \
                 single-core host: serial {:.1} ms, threaded {:.1} ms \
                 (ratio {ratio:.2})",
                t1 * 1e3,
                t4 * 1e3,
            );
        }
    }
}

#[test]
#[ignore = "wall-clock ratio; CI job equivalence runs it with --include-ignored --test-threads=1"]
fn band_engine_threads_4_not_slower_than_1() {
    // Large enough that per-call fixed costs (plan build, spawn) are small
    // against the kernel work — the regime the 1 → 4 thread regression
    // lived in.
    let g = generate::erdos_renyi(4000, 0.002, &mut StdRng::seed_from_u64(99)).unwrap();
    let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(8));
    let band = BandMask::from_traversal(&traverse(&g, &cfg).unwrap());
    let dim = 32;
    let x = sample(band.len() * dim, 31);
    let edges = band
        .active_slots()
        .iter()
        .map(|s| s.edge)
        .max()
        .map_or(0, |e| e + 1);
    let weights = sample(edges, 32);
    let d_out = sample(band.len() * dim, 33);

    let mut fwd = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; edges];
    let mut times = [0.0f64; 2];
    for (slot, threads) in [(0usize, 1usize), (1, 4)] {
        let par = Parallelism::with_threads(threads);
        times[slot] = time_min(3, || {
            fwd.fill(0.0);
            dw.fill(0.0);
            kernels::banded_aggregate(BandLanes::SCALAR, &band, &x, dim, &weights, &par, &mut fwd);
            kernels::banded_weight_grad(BandLanes::SCALAR, &band, &x, &d_out, dim, &par, &mut dw);
            std::hint::black_box((&fwd, &dw));
        });
    }
    let ratio = times[1] / times[0];
    assert!(
        ratio <= NOISE_TOLERANCE,
        "band engine: threads=4 must not be slower than threads=1 \
         (L={}, ω={}, dim={dim}, {}-core host): t1 {:.2} ms, t4 {:.2} ms \
         (ratio {ratio:.2})",
        band.len(),
        band.window(),
        host_threads(),
        times[0] * 1e3,
        times[1] * 1e3,
    );
}

#[test]
#[ignore = "wall-clock ratio; CI job equivalence runs it with --include-ignored --test-threads=1"]
fn oversubscription_is_clamped_not_paid_for() {
    // Requesting absurd thread counts must cost the same as requesting the
    // host's own width — the clamp, measured. (Pre-clamp, 16 workers on a
    // small host slowed the band engine well past NOISE_TOLERANCE.)
    let g = generate::erdos_renyi(2000, 0.004, &mut StdRng::seed_from_u64(7)).unwrap();
    let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(6));
    let band = BandMask::from_traversal(&traverse(&g, &cfg).unwrap());
    let dim = 16;
    let x = sample(band.len() * dim, 41);
    let edges = band
        .active_slots()
        .iter()
        .map(|s| s.edge)
        .max()
        .map_or(0, |e| e + 1);
    let weights = sample(edges, 42);

    let sane = Parallelism::with_threads(host_threads());
    let absurd = Parallelism::with_threads(host_threads() * 16);
    assert_eq!(absurd.effective_threads(), host_threads());
    let mut out = vec![0.0f32; x.len()];
    let mut timed = |par: &Parallelism| {
        time_min(3, || {
            out.fill(0.0);
            kernels::banded_aggregate(BandLanes::SCALAR, &band, &x, dim, &weights, par, &mut out);
            std::hint::black_box(&out);
        })
    };
    let t_sane = timed(&sane);
    let t_absurd = timed(&absurd);
    let ratio = t_absurd / t_sane;
    assert!(
        ratio <= NOISE_TOLERANCE,
        "requesting {}x the host's cores must be free after clamping: \
         sane {:.2} ms, oversubscribed {:.2} ms (ratio {ratio:.2})",
        16,
        t_sane * 1e3,
        t_absurd * 1e3,
    );
}
