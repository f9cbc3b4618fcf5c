//! Property-based tests for the execution backends.
//!
//! Three families:
//!
//! 1. **SIMD ≡ reference** — the vectorized [`SimdBackend`] must be
//!    bit-for-bit identical to [`ReferenceBackend`] for every GEMM shape
//!    (including shapes that straddle the `MC`/`MR`/`NR` tile boundaries and
//!    the serial/parallel flop cutoff, inputs with the exact zeros the
//!    reference skips and the tiles add, and a non-finite `b`, which the
//!    tiles hand to the reference loops) on every tier
//!    [`SimdBackend::all_on_host`] lists, and its elementwise family must
//!    match element-for-element.
//!    Every backend reads both [`Operand`] layouts of both GEMM operands and
//!    overwrites whatever `out` held.
//! 2. **Fused ≡ unfused** — `gemm` under every [`Epilogue`] and `norm`
//!    under every `(NormKind, activation)` equal the unfused reference
//!    chain, on every backend and thread count.
//! 3. **Adjoint structure** — `scatter_add_rows` is the exact adjoint of
//!    `gather_rows` (⟨G x, y⟩ = ⟨x, Gᵀ y⟩), and both agree with central
//!    finite differences of the induced scalar loss.

use mega_core::Parallelism;
use mega_exec::{Backend, Epilogue, NormKind, Operand, ReferenceBackend, SimdBackend, Unary};
use proptest::prelude::*;
use Operand::{RowMajor, Transposed};

/// Labels a SIMD tier for assert messages: `simd-avx512-16`, `simd-portable-4`.
fn tier_label(simd: &SimdBackend) -> String {
    format!("simd-{}-{}", simd.tier(), simd.lane_width())
}

/// The reference backend plus every SIMD tier the host runs, labelled for
/// assert messages.
fn dense_backends() -> Vec<(String, Box<dyn Backend>)> {
    let mut v: Vec<(String, Box<dyn Backend>)> =
        vec![("reference".into(), Box::new(ReferenceBackend))];
    for simd in SimdBackend::all_on_host() {
        v.push((tier_label(&simd), Box::new(simd)));
    }
    v
}

/// Exact bit patterns of a float slice, for whole-vector equality asserts.
fn bit_vec(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Matrix entries with the values a fold order shows up on mixed in: both
/// zeros, subnormals, and magnitudes far enough apart to round.
fn arb_edge_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![
            (-2.0f32..2.0).boxed(),
            (-1e4f32..1e4).boxed(),
            Just(0.0f32).boxed(),
            Just(-0.0f32).boxed(),
            Just(1e-41f32).boxed(),
            Just(-1e-41f32).boxed(),
            Just(f32::MIN_POSITIVE).boxed(),
        ],
        len..=len,
    )
}

/// The batch norm kernel as it was before it swept row-major: one column at
/// a time down the rows, stride `cols`. The oracle of
/// `batch_norm_bit_identical_to_column_walk`.
fn batch_norm_by_column(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    rows: usize,
    cols: usize,
    eps: f32,
    out: &mut [f32],
) {
    let rn = rows.max(1) as f32;
    for j in 0..cols {
        let mut mean = 0.0f32;
        for i in 0..rows {
            mean += x[i * cols + j];
        }
        mean /= rn;
        let mut var = 0.0f32;
        for i in 0..rows {
            var += (x[i * cols + j] - mean).powi(2);
        }
        var /= rn;
        let inv = 1.0 / (var + eps).sqrt();
        for i in 0..rows {
            let xhat = (x[i * cols + j] - mean) * inv;
            out[i * cols + j] = gamma[j] * xhat + beta[j];
        }
    }
}

/// Row-major matrix entries with exact zeros mixed in: the terms the
/// reference skips and the SIMD tiles add.
fn arb_matrix(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![(-2.0f32..2.0).boxed(), Just(0.0f32).boxed()],
        len..=len,
    )
}

/// The row-major `cols × rows` transpose of a row-major `rows × cols`
/// matrix: the storage a [`Operand::Transposed`] operand reads.
fn transpose(v: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols * rows)
        .map(|i| v[(i % rows) * cols + i / rows])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `gemm` reads either layout of either operand and writes every
    /// element of `out`, whatever it held: on the reference backend and
    /// every SIMD tier, all four layout pairs under every [`Epilogue`],
    /// into an `out` pre-filled with NaN or `-0.0`, equal the reference on
    /// row-major copies bit for bit. `n mod 6`, `n mod 3` and `m mod 32` are
    /// never zero, so every tier ends on a short tile and a short strip.
    #[test]
    fn gemm_reads_both_layouts_and_overwrites_out(
        (n_blocks, n_tail, k) in (0usize..5, 0usize..6, 1usize..40),
        (m_strips, m_tail) in (0usize..3, 1usize..32),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 12 * n_blocks + [1, 2, 5, 7, 10, 11][n_tail];
        let m = 32 * m_strips + m_tail;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0u32..8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect()
        };
        let (a, b, bias) = (draw(n * k), draw(k * m), draw(m));
        let (at, bt) = (transpose(&a, n, k), transpose(&b, k, m));
        let layouts = [
            (RowMajor(&a), RowMajor(&b)),
            (Transposed(&at), RowMajor(&b)),
            (RowMajor(&a), Transposed(&bt)),
            (Transposed(&at), Transposed(&bt)),
        ];
        let serial = Parallelism::with_threads(1);
        let dense = dense_backends();
        for epilogue in [Epilogue::None, Epilogue::Bias(&bias), Epilogue::BiasRelu(&bias)] {
            let mut want = vec![0.0f32; n * m];
            ReferenceBackend.gemm(layouts[0].0, layouts[0].1, n, k, m, epilogue, &serial, &mut want);
            for (name, backend) in &dense {
                for threads in [1usize, 4] {
                    let par = Parallelism::pinned(threads);
                    for (i, &(oa, ob)) in layouts.iter().enumerate() {
                        let mut got = vec![if i % 2 == 0 { f32::NAN } else { -0.0 }; n * m];
                        backend.gemm(oa, ob, n, k, m, epilogue, &par, &mut got);
                        prop_assert_eq!(
                            bit_vec(&got), bit_vec(&want),
                            "{} {}x{}x{} threads={} layouts {} {:?}", name, n, k, m, threads, i, epilogue
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SimdBackend's vectorized GEMM is bit-identical to the reference
    /// loops for every shape, every tier, and both thread counts — the
    /// lanes split the output columns, never a single element's fold.
    #[test]
    fn simd_matmul_bit_identical_to_reference(
        (n, k, m) in (1usize..70, 1usize..70, 1usize..70),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> =
            (0..n * k).map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-2.0f32..2.0) }).collect();
        let b: Vec<f32> =
            (0..k * m).map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-2.0f32..2.0) }).collect();
        for backend in SimdBackend::all_on_host() {
            for threads in [1usize, 4] {
                let par = Parallelism::pinned(threads);
                let (oa, ob) = (RowMajor(&a), RowMajor(&b));
                let mut want = vec![0.0f32; n * m];
                ReferenceBackend.gemm(oa, ob, n, k, m, Epilogue::None, &par, &mut want);
                let mut got = vec![0.0f32; n * m];
                backend.gemm(oa, ob, n, k, m, Epilogue::None, &par, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "{} threads={}", tier_label(&backend), threads
                    );
                }
            }
        }
    }

    /// The two conditions that make the tiles' unskipped zero terms
    /// invisible, and the short tiles, under adversarial inputs: `a` mixes
    /// ±0.0, subnormals and (in half the cases) NaN; `b` is finite in half
    /// the cases and carries ±inf or NaN in the other half, which the SIMD
    /// backend must hand to the reference loops (a tile would turn a
    /// skipped `0 · inf` into NaN); `n mod 6`, `n mod 4`, `n mod 3` and
    /// `m mod 32` are never zero, so every tier ends on a short tile and
    /// on a short strip. Every tier, pinned threads {1, 2, 4}, both
    /// epilogues, all four operand layout pairs, against the reference.
    #[test]
    fn simd_tiles_match_reference_on_non_finite_and_tail_inputs(
        (n_blocks, n_tail, k) in (0usize..5, 0usize..6, 1usize..48),
        (m_strips, m_tail) in (0usize..3, 1usize..32),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 12 * n_blocks + [1, 2, 5, 7, 10, 11][n_tail];
        let m = 32 * m_strips + m_tail;
        let mut rng = StdRng::seed_from_u64(seed);
        let nan_rate = if rng.gen_bool(0.5) { 0.0 } else { 0.01 };
        let a: Vec<f32> = (0..n * k)
            .map(|_| match rng.gen_range(0.0f64..1.0) {
                u if u < 0.2 => 0.0,
                u if u < 0.4 => -0.0,
                u if u < 0.45 => 1e-41,
                u if u < 0.5 => -1e-41,
                u if u < 0.5 + nan_rate => f32::NAN,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        let mut b: Vec<f32> = (0..k * m).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(1usize..4) {
                let i = rng.gen_range(0..b.len());
                b[i] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0usize..3)];
            }
        }
        let bias: Vec<f32> = (0..m).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // The non-finite check runs in both of `pack_strips`' branches, so
        // every layout pair is drawn, against the reference on row-major.
        let (at, bt) = (transpose(&a, n, k), transpose(&b, k, m));
        let layouts = [
            (RowMajor(&a), RowMajor(&b)),
            (Transposed(&at), RowMajor(&b)),
            (RowMajor(&a), Transposed(&bt)),
            (Transposed(&at), Transposed(&bt)),
        ];
        for backend in SimdBackend::all_on_host() {
            for threads in [1usize, 2, 4] {
                let par = Parallelism::pinned(threads);
                for epilogue in [Epilogue::None, Epilogue::BiasRelu(&bias)] {
                    let mut want = vec![0.0f32; n * m];
                    ReferenceBackend.gemm(layouts[0].0, layouts[0].1, n, k, m, epilogue, &par, &mut want);
                    for (i, &(oa, ob)) in layouts.iter().enumerate() {
                        let mut got = vec![0.0f32; n * m];
                        backend.gemm(oa, ob, n, k, m, epilogue, &par, &mut got);
                        prop_assert_eq!(
                            bit_vec(&got), bit_vec(&want),
                            "{} {}x{}x{} threads={} layouts {} {:?}",
                            tier_label(&backend), n, k, m, threads, i, epilogue
                        );
                    }
                }
            }
        }
    }

    /// The SIMD fused GEMM epilogue and the elementwise family match the
    /// reference bit-for-bit, including the scalar tail past the last full
    /// vector and the transcendental delegation.
    #[test]
    fn simd_elementwise_and_fused_bit_identical_to_reference(
        (n, k, m, slope) in (1usize..40, 1usize..40, 1usize..40, 0.01f32..0.5),
        x in arb_matrix(40 * 40),
        w in arb_matrix(40 * 40),
        bias in arb_matrix(40),
    ) {
        let par = Parallelism::with_threads(1);
        let (x, w, bias) = (&x[..n * k], &w[..k * m], &bias[..m]);
        let (ox, ow) = (RowMajor(x), RowMajor(w));
        for backend in SimdBackend::all_on_host() {
            let tier = tier_label(&backend);
            let epilogue = Epilogue::BiasRelu(bias);
            let mut want = vec![0.0f32; n * m];
            ReferenceBackend.gemm(ox, ow, n, k, m, epilogue, &par, &mut want);
            let mut got = vec![0.0f32; n * m];
            backend.gemm(ox, ow, n, k, m, epilogue, &par, &mut got);
            prop_assert_eq!(bit_vec(&got), bit_vec(&want), "{:?} tier={}", epilogue, tier);
            let len = (n * k).min(k * m);
            let (a, b) = (&x[..len], &w[..len]);
            let mut want = vec![0.0f32; len];
            let mut got = vec![0.0f32; len];
            ReferenceBackend.add(a, b, &mut want);
            backend.add(a, b, &mut got);
            prop_assert_eq!(bit_vec(&got), bit_vec(&want), "add tier={}", tier);
            ReferenceBackend.mul(a, b, &mut want);
            backend.mul(a, b, &mut got);
            prop_assert_eq!(bit_vec(&got), bit_vec(&want), "mul tier={}", tier);
            for op in [Unary::Relu, Unary::LeakyRelu(slope), Unary::Sigmoid, Unary::Tanh] {
                ReferenceBackend.unary(op, a, &mut want);
                backend.unary(op, a, &mut got);
                prop_assert_eq!(bit_vec(&got), bit_vec(&want), "{:?} tier={}", op, tier);
            }
        }
    }

    /// `gemm` under every [`Epilogue`] ≡ the unfused serial chain,
    /// bit-for-bit, over random shapes × pinned thread counts {1, 2, 4} ×
    /// the reference backend and every lane implementation. The anchor is
    /// the *serial* scalar kernel (`kernels::matmul`) followed by the
    /// separate `add_bias_rows` and `unary` passes, not another fused or
    /// parallel path, so this pins the whole stack — row partitioning,
    /// shared packed strips, direct-write fan-out, fused epilogues — to the
    /// serial unfused fold. Shapes reach past the `1 << 17` flop cutoff so
    /// the fan-out really runs (pinning bypasses the host-core clamp).
    #[test]
    fn threaded_gemm_bit_identical_to_serial(
        (n, k, m) in (1usize..96, 1usize..96, 1usize..96),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> =
            (0..n * k).map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-2.0f32..2.0) }).collect();
        let b: Vec<f32> =
            (0..k * m).map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-2.0f32..2.0) }).collect();
        let bias: Vec<f32> = (0..m).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut product = vec![0.0f32; n * m];
        mega_exec::kernels::matmul(RowMajor(&a), RowMajor(&b), n, k, m, &mut product);
        let mut biased = vec![0.0f32; n * m];
        ReferenceBackend.add_bias_rows(&product, &bias, n, m, &mut biased);
        let mut relu = vec![0.0f32; n * m];
        ReferenceBackend.unary(Unary::Relu, &biased, &mut relu);
        let cases = [
            (Epilogue::None, product.clone()),
            (Epilogue::Bias(&bias), biased),
            (Epilogue::BiasRelu(&bias), relu),
        ];
        let dense = dense_backends();
        for threads in [1usize, 2, 4] {
            let par = Parallelism::pinned(threads);
            for (name, backend) in &dense {
                for (epilogue, want) in &cases {
                    let mut got = vec![0.0f32; n * m];
                    backend.gemm(RowMajor(&a), RowMajor(&b), n, k, m, *epilogue, &par, &mut got);
                    prop_assert_eq!(
                        bit_vec(&got), bit_vec(want),
                        "{:?} {} threads={}", epilogue, name, threads
                    );
                }
            }
        }
    }

    /// `norm` under every `(NormKind, activation)` ≡ the reference norm
    /// kernel followed by a separate `unary` pass, bit-for-bit, on the
    /// reference backend and every lane implementation.
    #[test]
    fn norm_bit_identical_to_unfused_chain(
        (rows, cols, slope) in (1usize..12, 1usize..20, 0.01f32..0.5),
        x in arb_matrix(12 * 20),
        gamma in arb_matrix(20),
        beta in arb_matrix(20),
    ) {
        let (x, gamma, beta) = (&x[..rows * cols], &gamma[..cols], &beta[..cols]);
        let eps = 1e-5f32;
        let backends = dense_backends();
        for kind in [NormKind::Layer, NormKind::Batch] {
            let mut normed = vec![0.0f32; rows * cols];
            match kind {
                NormKind::Layer => mega_exec::kernels::layer_norm(x, gamma, beta, rows, cols, eps, &mut normed),
                NormKind::Batch => mega_exec::kernels::batch_norm(x, gamma, beta, rows, cols, eps, &mut normed),
            }
            for act in [None, Some(Unary::Relu), Some(Unary::LeakyRelu(slope))] {
                let mut want = normed.clone();
                if let Some(act) = act {
                    ReferenceBackend.unary(act, &normed, &mut want);
                }
                for (name, backend) in &backends {
                    let mut got = vec![0.0f32; rows * cols];
                    backend.norm(kind, x, gamma, beta, rows, cols, eps, act, &mut got);
                    prop_assert_eq!(
                        bit_vec(&got), bit_vec(&want),
                        "{:?} {:?} {}", kind, act, name
                    );
                }
            }
        }
    }

    /// The row-major `batch_norm` ≡ the column-by-column walk it replaced,
    /// bit for bit: empty and single-row inputs, a single column, signed
    /// zeros and subnormals among the values.
    #[test]
    fn batch_norm_bit_identical_to_column_walk(
        rows in prop_oneof![Just(0usize).boxed(), Just(1usize).boxed(), (2usize..12).boxed()],
        cols in prop_oneof![Just(0usize).boxed(), Just(1usize).boxed(), (2usize..20).boxed()],
        x in arb_edge_values(12 * 20),
        gamma in arb_edge_values(20),
        beta in arb_edge_values(20),
    ) {
        let (x, gamma, beta) = (&x[..rows * cols], &gamma[..cols], &beta[..cols]);
        let eps = 1e-5f32;
        let mut want = vec![f32::NAN; rows * cols];
        batch_norm_by_column(x, gamma, beta, rows, cols, eps, &mut want);
        let mut got = vec![f32::NAN; rows * cols];
        mega_exec::kernels::batch_norm(x, gamma, beta, rows, cols, eps, &mut got);
        prop_assert_eq!(bit_vec(&got), bit_vec(&want), "{}x{}", rows, cols);
    }

    /// ⟨gather(x), y⟩ = ⟨x, scatter_add(y)⟩ for every index pattern —
    /// scatter_add_rows is the exact adjoint of gather_rows, which is what
    /// the tape's backward pass relies on.
    #[test]
    fn scatter_add_is_adjoint_of_gather(
        (src_rows, cols) in (1usize..12, 1usize..8),
        index in proptest::collection::vec(0usize..12, 1..20),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let index: Vec<usize> = index.into_iter().map(|i| i % src_rows).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..src_rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let y: Vec<f32> = (0..index.len() * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let mut gx = vec![0.0f32; index.len() * cols];
        ReferenceBackend.gather_rows(&x, src_rows, cols, &index, &mut gx);
        let mut sy = vec![0.0f32; src_rows * cols];
        ReferenceBackend.scatter_add_rows(&y, &index, cols, src_rows, &mut sy);

        let lhs: f64 = gx.iter().zip(&y).map(|(a, b)| *a as f64 * *b as f64).sum();
        let rhs: f64 = x.iter().zip(&sy).map(|(a, b)| *a as f64 * *b as f64).sum();
        prop_assert!(
            (lhs - rhs).abs() <= 1e-4 * lhs.abs().max(1.0),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    /// Central finite differences of L(x) = ⟨gather(x), y⟩ recover
    /// scatter_add(y): the analytic adjoint matches the numeric gradient.
    #[test]
    fn gather_gradient_matches_finite_differences(
        (src_rows, cols) in (1usize..6, 1usize..5),
        index in proptest::collection::vec(0usize..6, 1..10),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let index: Vec<usize> = index.into_iter().map(|i| i % src_rows).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..src_rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let y: Vec<f32> = (0..index.len() * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let loss = |x: &[f32]| -> f64 {
            let mut gx = vec![0.0f32; index.len() * cols];
            ReferenceBackend.gather_rows(x, src_rows, cols, &index, &mut gx);
            gx.iter().zip(&y).map(|(a, b)| *a as f64 * *b as f64).sum()
        };
        let mut grad = vec![0.0f32; src_rows * cols];
        ReferenceBackend.scatter_add_rows(&y, &index, cols, src_rows, &mut grad);

        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * h as f64);
            prop_assert!(
                (numeric - grad[i] as f64).abs() <= 1e-2 * numeric.abs().max(1.0),
                "element {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }
}
