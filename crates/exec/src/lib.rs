//! Pluggable kernel execution backends for MEGA.
//!
//! Every kernel the training stack executes — dense GEMM, elementwise ops,
//! row gather/scatter, segment softmax, layer/batch norm, and the banded
//! attention kernels — is dispatched through the [`Backend`] trait. The
//! autograd tape in `mega-tensor` and the GNN layers on top of it call
//! through a `dyn Backend`, so swapping in a faster implementation (or a
//! profiling decorator — see `mega-gpu-sim`'s `SimBackend`) is a one-crate
//! change.
//!
//! Two concrete backends live here:
//!
//! * [`ReferenceBackend`] — the default-method loops of [`kernels`], the
//!   exact arithmetic the workspace has always used, and the oracle every
//!   other backend is compared against.
//! * [`SimdBackend`] — explicit-width vector lanes over a packed `k × NR`
//!   strip layout: register-blocked GEMM tiles (AVX-512, AVX, or portable
//!   scalar lanes, chosen by CPU feature detection), the elementwise
//!   family, the fused bias and bias-ReLU epilogues, and the band kernels'
//!   row update and weight-gradient fold. Bit-identical to the reference:
//!   lanes vectorize across output elements, never across a single
//!   element's fold.
//!
//! [`ProfiledBackend`] decorates either with roofline attribution.
//!
//! [`BufferPool`] supplies recycled output buffers so steady-state training
//! stops allocating per tape node.
//!
//! This is the only workspace crate allowed to contain `unsafe` (and only
//! in `simd.rs`) — enforced by `mega-lint`'s `unsafe-scope` rule, with
//! every site carrying a `// SAFETY:` comment (`undocumented-unsafe` rule)
//! and unsafe operations never implicit inside unsafe fns.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod kernels;
mod partition;
mod pool;
mod profiled;
mod reference;
mod simd;

pub use pool::BufferPool;
pub use profiled::{Calibration, ProfiledBackend};
pub use reference::ReferenceBackend;
pub use simd::SimdBackend;

use kernels::BandLanes;
use mega_core::band::BandMask;
use mega_core::Parallelism;
use std::sync::Arc;

/// Elementwise activation selector for [`Backend::unary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unary {
    /// `max(x, 0)`.
    Relu,
    /// `x` if positive, else `slope · x`.
    LeakyRelu(f32),
    /// `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// One [`Backend::gemm`] operand: a row-major slice holding the logical
/// matrix or its transpose. A transposed operand is read in place, so the
/// backward products `g · wᵀ` and `xᵀ · g` copy nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand<'a> {
    /// The slice is the `r × c` matrix itself.
    RowMajor(&'a [f32]),
    /// The slice is the `c × r` transpose of the `r × c` matrix.
    Transposed(&'a [f32]),
}

impl<'a> Operand<'a> {
    /// The slice, whichever layout it holds.
    pub fn data(self) -> &'a [f32] {
        match self {
            Operand::RowMajor(s) | Operand::Transposed(s) => s,
        }
    }
}

/// What [`Backend::gemm`] applies to the product before returning — the
/// three GEMM shapes the training stack emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epilogue<'a> {
    /// Plain product: `out = a · b`.
    None,
    /// `out = a · b + bias` with a `1 × m` bias row.
    Bias(&'a [f32]),
    /// `out = relu(a · b + bias)` with a `1 × m` bias row.
    BiasRelu(&'a [f32]),
}

/// Which statistics [`Backend::norm`] normalizes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormKind {
    /// Row-wise layer normalization.
    Layer,
    /// Column-wise batch normalization.
    Batch,
}

/// One execution backend: every kernel the system runs, behind one dispatch
/// point.
///
/// All tensors are row-major `f32` slices with explicit shapes. Kernels that
/// accumulate (`scatter_add_rows`, `banded_*`) expect a zeroed `out`; the
/// rest, `gemm` included, overwrite every element and never read what `out`
/// held. Default methods delegate to the
/// reference loops in [`kernels`], so a backend only overrides the kernels
/// it actually accelerates — and every override must keep the documented
/// per-output-element accumulation order, because training histories are
/// compared bit-for-bit across backends and thread counts.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Stable name, as accepted by [`backend_by_name`] and the CLI.
    fn name(&self) -> &'static str;

    /// Dense GEMM `out = a · b` (`n × k` times `k × m`, each operand in its
    /// own [`Operand`] layout) followed by `epilogue`, parallelized under
    /// `par` with bit-identical results for every thread count.
    ///
    /// `out` is write-only: every element is written and nothing it held is
    /// read. Each output element is the fold `acc + a[i][k]·b[k][j]` in
    /// ascending `k` from `acc = +0.0`, and the reference skips the terms
    /// with `a[i][k] == 0.0`. An implementation may add those terms instead,
    /// because from a `+0.0` start `acc` never becomes `-0.0` under
    /// round-to-nearest, and with a finite `b` every skipped term is `±0`,
    /// which leaves any other `acc` unchanged. A `b` with a non-finite value
    /// must keep the skip (`0 · inf` is NaN). The same argument makes the
    /// product free of `-0.0`.
    ///
    /// An epilogue is the same arithmetic as the product → add bias row →
    /// activation chain (each element rounded at every step, nothing
    /// contracted); fusing saves memory sweeps, never precision.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        a: Operand<'_>,
        b: Operand<'_>,
        n: usize,
        k: usize,
        m: usize,
        epilogue: Epilogue<'_>,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        kernels::matmul_par(a, b, n, k, m, par, out);
        kernels::epilogue(epilogue, out, m);
    }

    /// Elementwise `out = a + b`.
    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernels::add(a, b, out);
    }

    /// Elementwise `out = a - b`.
    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernels::sub(a, b, out);
    }

    /// Elementwise `out = a ⊙ b`.
    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernels::mul(a, b, out);
    }

    /// Elementwise `out = k · a`.
    fn scale(&self, a: &[f32], k: f32, out: &mut [f32]) {
        kernels::scale(a, k, out);
    }

    /// Adds a `1 × m` bias row to every row of the `n × m` input.
    fn add_bias_rows(&self, x: &[f32], bias: &[f32], n: usize, m: usize, out: &mut [f32]) {
        kernels::add_bias_rows(x, bias, n, m, out);
    }

    /// Elementwise activation.
    fn unary(&self, op: Unary, x: &[f32], out: &mut [f32]) {
        kernels::unary(op, x, out);
    }

    /// Row gather `out[i] = src[index[i]]`.
    fn gather_rows(
        &self,
        src: &[f32],
        src_rows: usize,
        cols: usize,
        index: &[usize],
        out: &mut [f32],
    ) {
        kernels::gather_rows(src, src_rows, cols, index, out);
    }

    /// Row scatter-add `out[index[i]] += src[i]` into `out_rows` buckets.
    fn scatter_add_rows(
        &self,
        src: &[f32],
        index: &[usize],
        cols: usize,
        out_rows: usize,
        out: &mut [f32],
    ) {
        kernels::scatter_add_rows(src, index, cols, out_rows, out);
    }

    /// Scales row `r` by `factors[r]`.
    fn scale_rows(&self, x: &[f32], factors: &[f32], cols: usize, out: &mut [f32]) {
        kernels::scale_rows(x, factors, cols, out);
    }

    /// Column-wise softmax within row segments.
    fn segment_softmax(
        &self,
        x: &[f32],
        rows: usize,
        cols: usize,
        segments: &[usize],
        n_segments: usize,
        out: &mut [f32],
    ) {
        kernels::segment_softmax(x, rows, cols, segments, n_segments, out);
    }

    /// Layer or batch normalization with affine parameters, optionally
    /// followed by an elementwise activation applied to the normalized
    /// output in place — bitwise the unfused pair.
    #[allow(clippy::too_many_arguments)]
    fn norm(
        &self,
        kind: NormKind,
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        rows: usize,
        cols: usize,
        eps: f32,
        act: Option<Unary>,
        out: &mut [f32],
    ) {
        match kind {
            NormKind::Layer => kernels::layer_norm(x, gamma, beta, rows, cols, eps, out),
            NormKind::Batch => kernels::batch_norm(x, gamma, beta, rows, cols, eps, out),
        }
        if let Some(act) = act {
            kernels::unary_inplace(act, out);
        }
    }

    /// Banded attention aggregation `out += A·x`, with `A` the symmetric
    /// banded slot-weight matrix, written in place into the caller's zeroed
    /// `L × dim` buffer `out` — no scratch of that size exists on this path.
    /// One resolved worker runs the slot walk, more run its row-fold replay;
    /// the bits are the same for every `par`. The default runs both on
    /// [`BandLanes::SCALAR`]; a backend overrides this only to pass its own
    /// lanes to the same `kernels` loops.
    fn banded_aggregate(
        &self,
        band: &BandMask,
        x: &[f32],
        dim: usize,
        weights: &[f32],
        par: &Parallelism,
        out: &mut [f32],
    ) {
        kernels::banded_aggregate(BandLanes::SCALAR, band, x, dim, weights, par, out);
    }

    /// Banded attention per-edge weight gradient, assigned in place into the
    /// caller's zeroed `edge_count`-long buffer `out`; same walk-or-replay
    /// selection and the same bits for every `par`.
    #[allow(clippy::too_many_arguments)]
    fn banded_weight_grad(
        &self,
        band: &BandMask,
        x: &[f32],
        d_out: &[f32],
        dim: usize,
        edge_count: usize,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), edge_count, "out must hold edge_count values");
        kernels::banded_weight_grad(BandLanes::SCALAR, band, x, d_out, dim, par, out);
    }
}

/// Resolves a backend by its CLI name (`reference`, `simd`, or
/// `profiled` — the roofline decorator over the reference backend; the CLI
/// also accepts `profiled:<inner>` and wraps the named inner backend).
pub fn backend_by_name(name: &str) -> Option<Arc<dyn Backend>> {
    match name {
        "reference" => Some(Arc::new(ReferenceBackend)),
        "simd" => Some(Arc::new(SimdBackend::new())),
        "profiled" => Some(Arc::new(ProfiledBackend::new(Arc::new(ReferenceBackend)))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_lookup_by_name() {
        assert_eq!(backend_by_name("reference").unwrap().name(), "reference");
        assert_eq!(backend_by_name("simd").unwrap().name(), "simd");
        assert_eq!(backend_by_name("profiled").unwrap().name(), "profiled");
        assert!(backend_by_name("cuda").is_none());
        assert!(backend_by_name("blocked").is_none(), "retired backend");
    }

    #[test]
    fn default_methods_match_kernels() {
        use Operand::{RowMajor, Transposed};
        let b = ReferenceBackend;
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let c = [5.0f32, 6.0, 7.0, 8.0];
        let mut out = [f32::NAN; 4];
        let par = Parallelism::with_threads(1);
        b.gemm(
            RowMajor(&a),
            RowMajor(&c),
            2,
            2,
            2,
            Epilogue::None,
            &par,
            &mut out,
        );
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
        // aᵀ·cᵀ = (c·a)ᵀ, and c·a = [[23, 34], [31, 46]].
        b.gemm(
            Transposed(&a),
            Transposed(&c),
            2,
            2,
            2,
            Epilogue::None,
            &par,
            &mut out,
        );
        assert_eq!(out, [23.0, 31.0, 34.0, 46.0]);
        b.add(&a, &c, &mut out);
        assert_eq!(out, [6.0, 8.0, 10.0, 12.0]);
        b.unary(Unary::Relu, &[-1.0, 2.0], &mut out[..2]);
        assert_eq!(&out[..2], &[0.0, 2.0]);
    }

    #[test]
    fn gemm_epilogue_fuses_bias_and_activation() {
        let b = ReferenceBackend;
        let par = Parallelism::with_threads(1);
        // x = [[1, -1]], w = [[1, 2], [3, 4]], bias = [0.5, -10]
        let x = [1.0f32, -1.0];
        let w = [1.0f32, 2.0, 3.0, 4.0];
        let bias = [0.5f32, -10.0];
        let (x, x2, w) = (
            Operand::RowMajor(&x),
            Operand::RowMajor(&[1.0f32, 1.0]),
            Operand::RowMajor(&w),
        );
        let mut out = [0.0f32; 2];
        b.gemm(x, w, 1, 2, 2, Epilogue::BiasRelu(&bias), &par, &mut out);
        // x·w = [-2, -2]; +bias = [-1.5, -12]; relu = [0, 0]
        assert_eq!(out, [0.0, 0.0]);
        b.gemm(x, w, 1, 2, 2, Epilogue::Bias(&bias), &par, &mut out);
        assert_eq!(out, [-1.5, -12.0]);
        b.gemm(x2, w, 1, 2, 2, Epilogue::BiasRelu(&bias), &par, &mut out);
        // x·w = [4, 6]; +bias = [4.5, -4]; relu = [4.5, 0]
        assert_eq!(out, [4.5, 0.0]);
    }
}
