//! Pluggable kernel execution backends for MEGA.
//!
//! Every kernel the training stack executes — dense GEMM, elementwise ops,
//! row gather/scatter, segment softmax, layer/batch norm forward and
//! backward, and the banded attention kernels — is dispatched through the
//! [`Backend`] trait. The autograd tape in `mega-tensor` and the GNN layers
//! on top of it call through a `dyn Backend`, so swapping in a faster
//! implementation (or the profiling decorator, [`ProfiledBackend`]) is a
//! one-crate change. The trait's 16 methods each do a job no other method
//! does: a bias row is added by [`Backend::add`] row by row (or fused as a
//! GEMM [`Epilogue`]), a per-row scale is a tape-level broadcast product,
//! and a norm's residual add and backward pass are [`NormPass`]es of
//! [`Backend::norm`].
//!
//! Two concrete backends live here:
//!
//! * [`ReferenceBackend`] — the default-method loops of [`kernels`]: plain
//!   scalar code that defines the bits (a fused multiply-add per GEMM term,
//!   the workspace `exp` under the sigmoid) and the oracle every other
//!   backend is compared against. On a target whose baseline lacks FMA
//!   (x86-64's) its GEMM is a library call per term, so nothing runs on it
//!   by default.
//! * [`SimdBackend`] — explicit-width vector lanes over a packed `k × NR`
//!   strip layout: register-blocked GEMM tiles (AVX-512, AVX, or portable
//!   scalar lanes, chosen by CPU feature detection), the elementwise
//!   family and the sigmoid, the fused bias and bias-ReLU epilogues, and
//!   the band kernels' row update and weight-gradient fold; the default
//!   backend everywhere. Bit-identical to the reference: lanes vectorize
//!   across output elements, never across a single element's fold.
//!
//! [`ProfiledBackend`], the one decorator, wraps either with roofline
//! attribution.
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

pub use kernels::{BandRoute, EdgeScore};

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

/// What one [`Backend::norm`] call computes, with the buffers it reads and
/// writes. All are `rows × cols` except the `1 × cols` parameter gradients.
#[derive(Debug)]
pub enum NormPass<'a> {
    /// `out = norm(x)`, then `act` applied to `out` in place when given —
    /// bitwise the unfused norm → activation pair.
    Forward {
        /// The input.
        x: &'a [f32],
        /// An activation fused after the norm.
        act: Option<Unary>,
        /// The write-only output.
        out: &'a mut [f32],
    },
    /// The norm of a residual sum: `x` becomes `h + x`, element by element,
    /// and `out = norm(h + x)` — bitwise the `add` → norm pair, with the sum
    /// in `x`'s buffer instead of one of its own.
    Residual {
        /// The residual stream, added first.
        h: &'a [f32],
        /// The other summand, overwritten by the sum the backward pass reads.
        x: &'a mut [f32],
        /// The write-only output.
        out: &'a mut [f32],
    },
    /// The backward pass at the norm's input `x`: `g`, the gradient of the
    /// output, becomes that of `x`, and the gradients of `gamma` and `beta`
    /// are added into the zeroed `dgamma` and `dbeta`.
    Backward {
        /// The norm's input (for [`NormPass::Residual`], the sum).
        x: &'a [f32],
        /// The upstream gradient, rewritten in place.
        g: &'a mut [f32],
        /// Accumulates the gradient of `gamma`.
        dgamma: &'a mut [f32],
        /// Accumulates the gradient of `beta`.
        dbeta: &'a mut [f32],
    },
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
    /// read. Each output element is the fold `acc = fma(a[i][k], b[k][j],
    /// acc)` — product and sum rounded once — in ascending `k` from
    /// `acc = +0.0`, skipping the terms with `a[i][k] == 0.0`, stored as
    /// `acc + 0.0`. An implementation may add the skipped terms instead when
    /// every `b` is finite: such a term adds `±0`, which leaves a nonzero
    /// `acc` unchanged, so the two folds differ at most in the sign of a zero
    /// `acc`; that sign never reaches a nonzero result, and the closing
    /// `+ 0.0` makes every zero `+0.0`. A `b` with a non-finite value must
    /// keep the skip (`0 · inf` is NaN). The closing add also keeps the
    /// product free of `-0.0`, which a fused term whose exact value
    /// underflows could otherwise leave.
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

    /// Elementwise `out = a ⊙ b`.
    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernels::mul(a, b, out);
    }

    /// Elementwise `out = k · a`.
    fn scale(&self, a: &[f32], k: f32, out: &mut [f32]) {
        kernels::scale(a, k, out);
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

    /// Layer or batch normalization with affine `gamma`, `beta` (each
    /// `1 × cols`) over a `rows × cols` input: one [`NormPass`] — the
    /// forward, the forward of a residual sum, or the backward
    /// ([`kernels::norm`]).
    #[allow(clippy::too_many_arguments)]
    fn norm(
        &self,
        kind: NormKind,
        pass: NormPass<'_>,
        gamma: &[f32],
        beta: &[f32],
        rows: usize,
        cols: usize,
        eps: f32,
    ) {
        kernels::norm(kind, pass, gamma, beta, rows, cols, eps);
    }

    /// Banded attention aggregation `out += A·x`, with `A` the symmetric
    /// banded slot-weight matrix, written in place into the caller's zeroed
    /// `L × dim` buffer `out` — no scratch of that size exists on this path.
    /// One resolved worker runs the slot walk, more run it clipped to the
    /// rows each owns; the bits are the same for every `par`. The default runs both on
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

    /// Edge scores over a batch's band, into the write-only `m × dim` buffer
    /// `out`: `form` of `q[dst]`, `k[src]` and `ee` per message — Graph
    /// Transformer's scaled product or the additive score of GatedGCN and
    /// GAT — with `q`, `k` node rows read through the route
    /// ([`kernels::band_edge_scores`]). The first of the attention form's
    /// two forward passes: no per-message copy of `q` or `k` exists.
    #[allow(clippy::too_many_arguments)]
    fn band_edge_scores(
        &self,
        route: BandRoute<'_>,
        q: &[f32],
        k: &[f32],
        ee: &[f32],
        dim: usize,
        form: EdgeScore,
        out: &mut [f32],
    ) {
        kernels::band_edge_scores(route, q, k, ee, dim, form, out);
    }

    /// The backward pass of [`Backend::band_edge_scores`]: rewrites `g` into
    /// the gradient with respect to `ee` and adds those with respect to `q`
    /// and `k` into the zeroed node-row buffers `dq`, `dk`
    /// ([`kernels::band_edge_scores_grad`]).
    #[allow(clippy::too_many_arguments)]
    fn band_edge_scores_grad(
        &self,
        route: BandRoute<'_>,
        q: &[f32],
        k: &[f32],
        ee: &[f32],
        dim: usize,
        form: EdgeScore,
        g: &mut [f32],
        dq: &mut [f32],
        dk: &mut [f32],
    ) {
        kernels::band_edge_scores_grad(route, q, k, ee, dim, form, g, dq, dk);
    }

    /// The attention form of the slot walk: per-message, per-head weights
    /// `attn` (`m × heads`) times source rows of `x`, added into destination
    /// rows of the zeroed node-row buffer `out`; `heads == dim` weighs every
    /// feature on its own (GatedGCN's gates), and `transposed` runs every
    /// message backwards, the values' gradient ([`kernels::band_attend`]).
    /// One worker, always. The default runs [`BandLanes::SCALAR`]; a backend
    /// overrides this only to pass its own lanes.
    #[allow(clippy::too_many_arguments)]
    fn band_attend(
        &self,
        route: BandRoute<'_>,
        x: &[f32],
        attn: &[f32],
        heads: usize,
        dim: usize,
        transposed: bool,
        out: &mut [f32],
    ) {
        kernels::band_attend(
            BandLanes::SCALAR,
            route,
            x,
            attn,
            heads,
            dim,
            transposed,
            out,
        );
    }

    /// The gradient of [`Backend::band_attend`] with respect to `attn`, into
    /// the write-only `m × heads` buffer `out`: one per-head dot product of
    /// `g[dst]` and `v[src]` per message ([`kernels::band_attend_weight_grad`]).
    fn band_attend_weight_grad(
        &self,
        route: BandRoute<'_>,
        g: &[f32],
        v: &[f32],
        heads: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        kernels::band_attend_weight_grad(route, g, v, heads, dim, out);
    }
}

/// Resolves a backend by its CLI name: `reference`, `simd`, or `profiled`
/// — the roofline decorator over the simd backend, or over the named inner
/// backend as `profiled:<inner>`.
pub fn backend_by_name(name: &str) -> Option<Arc<dyn Backend>> {
    if let Some(inner) = name.strip_prefix("profiled:") {
        return Some(Arc::new(ProfiledBackend::new(backend_by_name(inner)?)));
    }
    match name {
        "reference" => Some(Arc::new(ReferenceBackend)),
        "simd" => Some(Arc::new(SimdBackend::new())),
        "profiled" => Some(Arc::new(ProfiledBackend::new(Arc::new(SimdBackend::new())))),
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
        assert_eq!(backend_by_name("profiled:simd").unwrap().name(), "profiled");
        assert!(backend_by_name("profiled:cuda").is_none());
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
