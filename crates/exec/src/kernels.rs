//! Shared reference kernels — the single home of every hand-rolled loop.
//!
//! Each function here is the *reference* implementation the rest of the
//! workspace dispatches to: plain scalar loops with a fixed, documented
//! accumulation order and no floating-point reassociation. Their bit patterns
//! are contractual — backends that override a kernel must preserve the
//! per-output-element accumulation order (see `SimdBackend`), and the
//! parallel variants replay the serial order per owned output row so results
//! are bit-identical for every thread count.
//!
//! The band engine is one *slot walk*, written once and generic over where
//! a path position's row lives and over each slot's per-direction, per-head
//! weights. Its band-engine instance (`banded_aggregate_serial`: one row per
//! position, one symmetric weight per edge, one head) is both the reference
//! and the one-worker kernel; the *clipped walk* (`banded_*_segment`) makes
//! only the updates that land in the rows a worker owns, addressed through
//! slabs so the intra-op kernels and the distributed workers share it; its
//! attention instance (`band_attend`: node rows through a position → node
//! map, per-message weights per head or, with one head per feature, per
//! feature) aggregates every layer on a MEGA batch — Graph Transformer and
//! GAT attention, GatedGCN's gated sum — beside the three per-message passes
//! it needs (`band_edge_scores` in its product and sum forms,
//! `band_edge_scores_grad`, `band_attend_weight_grad`). The walks take their
//! inner loops as a [`BandLanes`]: [`BandLanes::SCALAR`] here, a SIMD tier's
//! lanes from `SimdBackend`, the same bits either way.
//!
//! Output conventions: `out` is the caller's, has exactly the output length
//! and is written in place. Kernels that accumulate (`scatter_add_rows`,
//! the banded kernels) require `out` to be zeroed on entry, all others
//! (`matmul*` included) overwrite every element.

use crate::partition;
use crate::{Epilogue, Operand, Unary};
use mega_core::band::{BandMask, BandSlot};
use mega_core::parallel::{join_workers, Chunk, ChunkPlan, Parallelism};
use std::ops::Range;

/// Below this many multiply-adds (`n·k·m`) the parallel matmul falls back to
/// the serial kernel: spawn cost dominates, and the bits are identical either
/// way, so the cutoff is purely a performance choice. Spawning a scoped
/// worker costs tens of microseconds; at ~1 multiply-add per cycle a thread
/// only pays for itself once it has ≳10⁵ of them, hence `1 << 17` (a 64×64
/// product at depth 32 stays serial, a 128³ one fans out).
pub const PAR_MATMUL_MIN_FLOPS: usize = 1 << 17;

/// Shadow-memory race detection for the chunked banded kernels.
///
/// Compiled in only under the `race-check` feature. A [`race::WriterMap`]
/// shadows every output location (band rows for the aggregation, edge slots
/// for the weight gradient) with the id of the chunk that claimed it; a
/// second claim by a *different* chunk panics with both writers named. The
/// parallel kernels also assert every row they read lies inside the claiming
/// chunk's ±ω read window. Running the serial/parallel equivalence harness
/// under this feature turns the bit-identity *sample* into a checked
/// row-ownership proof: no overlap panic ⇒ no two chunks ever wrote the
/// same location.
#[cfg(feature = "race-check")]
pub mod race {
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Sentinel writer id for "not yet claimed".
    const UNCLAIMED: u32 = u32::MAX;

    /// One shadow cell per output location, holding the claiming chunk id.
    #[derive(Debug)]
    pub struct WriterMap {
        what: &'static str,
        owners: Vec<AtomicU32>,
    }

    impl WriterMap {
        /// A map of `len` unclaimed locations, labelled `what` in panics.
        pub fn new(what: &'static str, len: usize) -> Self {
            WriterMap {
                what,
                owners: (0..len).map(|_| AtomicU32::new(UNCLAIMED)).collect(),
            }
        }

        /// Claims location `idx` for `writer`. Re-claims by the same writer
        /// are allowed (a chunk may accumulate into its own rows); a claim
        /// by a different writer is a cross-chunk write race and panics.
        // mega-lint: allow(panic-surface, reason = "race-check probe: panicking on a cross-chunk write IS the contract")
        pub fn claim(&self, idx: usize, writer: u32) {
            assert!(writer != UNCLAIMED, "writer id {writer} is the sentinel");
            match self.owners[idx].compare_exchange(
                UNCLAIMED,
                writer,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {}
                Err(prev) if prev == writer => {}
                Err(prev) => panic!(
                    "race-check: {} {idx} written by chunk {prev} and chunk {writer} \
                     — owned ranges overlap",
                    self.what
                ),
            }
        }

        /// Claims the half-open range `[lo, hi)` for `writer`.
        pub fn claim_range(&self, lo: usize, hi: usize, writer: u32) {
            for idx in lo..hi {
                self.claim(idx, writer);
            }
        }

        /// Number of locations claimed so far.
        // mega-lint: allow(span-coverage, reason = "race-check introspection; compiled out of measured builds")
        pub fn claimed(&self) -> usize {
            self.owners
                .iter()
                .filter(|o| o.load(Ordering::SeqCst) != UNCLAIMED)
                .count()
        }

        /// Panics unless every location was claimed by exactly one writer —
        /// the completeness half of the partition proof (the overlap half is
        /// enforced eagerly by [`WriterMap::claim`]).
        // mega-lint: allow(panic-surface, reason = "race-check probe: panicking on an ownership gap IS the contract")
        pub fn assert_complete(&self) {
            for (idx, o) in self.owners.iter().enumerate() {
                assert!(
                    o.load(Ordering::SeqCst) != UNCLAIMED,
                    "race-check: {} {idx} was never claimed — owned ranges have a gap",
                    self.what
                );
            }
        }
    }
}

/// Read-window check for the chunked kernels: under `race-check`, asserts
/// the row being read lies inside the chunk's ±ω read extent; otherwise
/// compiles to nothing.
#[cfg(feature = "race-check")]
#[inline]
// mega-lint: allow(panic-surface, reason = "race-check probe: panicking on an out-of-window read IS the contract")
fn check_read(chunk: &Chunk, row: usize) {
    assert!(
        row >= chunk.read_lo && row < chunk.read_hi,
        "race-check: chunk owning [{}, {}) read row {row} outside its ±ω window [{}, {})",
        chunk.start,
        chunk.end,
        chunk.read_lo,
        chunk.read_hi
    );
}

#[cfg(not(feature = "race-check"))]
#[inline(always)]
fn check_read(_chunk: &Chunk, _row: usize) {}

/// Row `i` of the `n × k` product `a · b`, written over `out_row`: every
/// element folds `fma(a[i][kk], b[kk][j], acc)` — one rounding per term — in
/// ascending `kk` from `acc = +0.0`, skipping `a == 0.0` terms, and then
/// stores `acc + 0.0`. The skip stays because this loop defines the bits
/// every backend matches (`Backend::gemm` says when a backend may add those
/// terms instead); the closing `+ 0.0` turns the one zero a fused fold can
/// end on besides `+0.0` — a term whose exact value underflowed to `-0.0` —
/// into `+0.0`. A row-major `b` is swept row by row, a transposed one column
/// by column; either way each element sees the same terms in the same order.
///
/// `f32::mul_add` is correctly rounded on every target, so these bits are
/// the same on every host; where the target's baseline lacks FMA (x86-64's)
/// it is a library call, and this loop is far slower than `SimdBackend`'s
/// tiles.
fn matmul_row(
    a: Operand<'_>,
    b: Operand<'_>,
    i: usize,
    (n, k, m): (usize, usize, usize),
    out_row: &mut [f32],
) {
    let a_at = |kk: usize| match a {
        Operand::RowMajor(a) => a[i * k + kk],
        Operand::Transposed(at) => at[kk * n + i],
    };
    match b {
        Operand::RowMajor(b) => {
            out_row.fill(0.0);
            for kk in 0..k {
                let av = a_at(kk);
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(&b[kk * m..(kk + 1) * m]) {
                    // mega-lint: allow(no-fma, reason = "every backend fuses the GEMM fold; this loop defines its bits")
                    *o = av.mul_add(bv, *o);
                }
            }
            for o in out_row.iter_mut() {
                *o += 0.0;
            }
        }
        Operand::Transposed(bt) => {
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (kk, &bv) in bt[j * k..(j + 1) * k].iter().enumerate() {
                    let av = a_at(kk);
                    if av != 0.0 {
                        // mega-lint: allow(no-fma, reason = "every backend fuses the GEMM fold; this loop defines its bits")
                        acc = av.mul_add(bv, acc);
                    }
                }
                *o = acc + 0.0;
            }
        }
    }
}

/// Rows `lo..` of the `n × k` by `k × m` product into `rows`, one
/// [`matmul_row`] per `m`-wide row.
fn matmul_rows(
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    lo: usize,
    rows: &mut [f32],
) {
    for (i, out_row) in (lo..).zip(rows.chunks_exact_mut(dims.2.max(1))) {
        matmul_row(a, b, i, dims, out_row);
    }
}

/// Asserts the operand and output lengths of an `n × k` by `k × m` product.
fn assert_product_shapes(a: Operand<'_>, b: Operand<'_>, n: usize, k: usize, m: usize) {
    assert_eq!(a.data().len(), n * k, "a must be {n}x{k}");
    assert_eq!(b.data().len(), k * m, "b must be {k}x{m}");
}

/// Serial matrix product `out = a · b` with `a` of shape `n × k` and `b` of
/// shape `k × m`, each in its own layout, written over the `n × m` buffer
/// `out`.
///
/// # Panics
///
/// Panics when any slice length disagrees with the shapes.
pub fn matmul(a: Operand<'_>, b: Operand<'_>, n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_product_shapes(a, b, n, k, m);
    assert_eq!(out.len(), n * m, "out must be {n}x{m}");
    matmul_rows(a, b, (n, k, m), 0, out);
}

/// Matrix product under a thread budget, bit-identical to [`matmul`] for
/// every thread count and either layout of each operand: output rows are
/// split into contiguous per-worker ranges and each row is produced by the
/// exact serial row kernel, written directly into its disjoint slice of
/// `out` (no partial buffers, no copy-back).
///
/// # Panics
///
/// Panics when any slice length disagrees with the shapes.
pub fn matmul_par(
    a: Operand<'_>,
    b: Operand<'_>,
    n: usize,
    k: usize,
    m: usize,
    par: &Parallelism,
    out: &mut [f32],
) {
    let threads = par.effective_threads().min(n.max(1));
    if threads <= 1 || n * k * m < PAR_MATMUL_MIN_FLOPS {
        return matmul(a, b, n, k, m, out);
    }
    let ranges = partition::row_ranges(n, threads, 1);
    matmul_par_with_ranges(a, b, n, k, m, &ranges, out);
}

/// [`matmul_par`] over an explicit row partition — the race-checkable entry
/// point, mirroring [`banded_aggregate_with_plan`]: the `race-check`
/// harness drives it with overlapping and gappy partitions to prove the
/// GEMM shadow writer map fires, while [`matmul_par`] always passes the
/// valid partition [`partition::row_ranges`] computes.
#[doc(hidden)]
pub fn matmul_par_with_ranges(
    a: Operand<'_>,
    b: Operand<'_>,
    n: usize,
    k: usize,
    m: usize,
    ranges: &[(usize, usize)],
    out: &mut [f32],
) {
    assert_product_shapes(a, b, n, k, m);
    partition::par_rows(out, n, m, ranges, |lo, _, rows| {
        matmul_rows(a, b, (n, k, m), lo, rows)
    });
}

/// Elementwise `out = a + b`.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// Elementwise (Hadamard) `out = a ⊙ b`.
pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// Elementwise `out = k · a`.
pub fn scale(a: &[f32], k: f32, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x * k;
    }
}

/// A GEMM epilogue applied in place to the `m`-wide rows of `out`:
/// `out[r, c] + bias[c]`, then `max(·, 0)` for [`Epilogue::BiasRelu`].
///
/// Same arithmetic as adding the bias row with [`add`] and then a ReLU
/// pass — the fusion saves memory sweeps, never a bit of precision.
pub fn epilogue(epilogue: Epilogue<'_>, out: &mut [f32], m: usize) {
    let (bias, relu) = match epilogue {
        Epilogue::None => return,
        Epilogue::Bias(bias) => (bias, false),
        Epilogue::BiasRelu(bias) => (bias, true),
    };
    assert_eq!(bias.len(), m, "bias must be 1x{m}");
    for row in out.chunks_exact_mut(m.max(1)) {
        for (o, &b) in row.iter_mut().zip(bias) {
            let v = *o + b;
            *o = if relu { v.max(0.0) } else { v };
        }
    }
}

/// [`exp_ws`] clamps its argument to `[EXP_LO, EXP_HI]`: every `2ⁿ` the
/// clamped range needs is a normal float (`n ∈ [−126, 127]`), so the
/// exponent-bit scale never overflows or goes subnormal.
pub(crate) const EXP_LO: f32 = -87.0;
/// The upper end of [`exp_ws`]'s clamp.
pub(crate) const EXP_HI: f32 = 88.0;
/// `1.5 · 2²³`: adding it rounds any float below 2²² in magnitude to the
/// nearest integer, ties to even, and subtracting it again is exact.
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2 = LN2_HI + LN2_LO`, Cody–Waite: `LN2_HI` has 9 significant bits,
/// so `n · LN2_HI` is exact for every `n` the clamp allows.
pub(crate) const LN2_HI: f32 = 0.693_359_4;
/// The low part of `ln 2`.
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;
/// The degree-5 polynomial `P` of [`exp_ws`], highest power first:
/// `e^r ≈ 1 + r + r²·P(r)` on `|r| ≤ ln 2 / 2` (Cephes `expf`).
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];
/// `2²³`: scaling an integer-valued float by it puts the integer in the
/// exponent field.
pub(crate) const EXPONENT_SHIFT: f32 = 8_388_608.0;

/// The workspace `exp`: the one definition of `e^x` behind
/// [`Unary::Sigmoid`], so its bits do not depend on the host's libm and
/// every SIMD tier can run the same operations on its lanes. In order:
///
/// 1. clamp `x` to `[EXP_LO, EXP_HI]` (a NaN passes through);
/// 2. `t = x·log₂e + ROUND_MAGIC` and `n = t − ROUND_MAGIC`, so `n` is
///    `x / ln 2` rounded to an integer;
/// 3. `r = (x − n·LN2_HI) − n·LN2_LO`;
/// 4. `p = ((P(r)·r²) + r) + 1`, `P` by Horner from `EXP_POLY[0]`;
/// 5. `p · 2ⁿ`, with `2ⁿ` the bits of `(n + 127) · 2²³` as an integer.
///
/// Every step is one IEEE `mul`, `add`, `sub`, compare or conversion,
/// nothing fused, so a lane that issues the same steps rounds the same.
/// Within 1 ulp of `e^x` at every multiple of 2⁻¹² in the clamp. Outside
/// it the clamp holds: `x > 88` gives `exp_ws(88)` ≈ 1.65·10³⁸, not `inf`,
/// and `x < −87` gives `exp_ws(−87)` ≈ 1.65·10⁻³⁸, not a subnormal or zero.
#[inline]
pub fn exp_ws(x: f32) -> f32 {
    let x = if EXP_LO > x { EXP_LO } else { x };
    let x = if EXP_HI < x { EXP_HI } else { x };
    let n = (x * std::f32::consts::LOG2_E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut y = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        y = y * r + c;
    }
    let p = (y * (r * r) + r) + 1.0;
    p * f32::from_bits(((n + 127.0) * EXPONENT_SHIFT) as u32)
}

/// Float operations per [`sigmoid`], counted as written: [`exp_ws`]'s 27
/// (two clamp compares, three for `n`, four for `r`, one for `r²`, ten for
/// Horner, three for `p`, the scale's add, multiply and conversion, and the
/// final multiply), then the negation, the `1 +` and the division.
pub const SIGMOID_FLOPS: u64 = 30;

/// `1 / (1 + exp_ws(−x))`: [`Unary::Sigmoid`] of one element. Every
/// `x ≤ −88` (−∞ included) gives the one constant `sigmoid(−88)` ≈
/// 6.05·10⁻³⁹, a subnormal, where libm's `expf` overflowed to `inf` and
/// gave `+0.0` below −88.72.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp_ws(-x))
}

/// Elementwise unary activation applied in place — per element exactly
/// [`unary`]'s arithmetic, reusing the buffer instead of reading a second
/// stream. Composite kernels (`layer_norm` + activation) use it for their
/// default fused epilogue.
pub fn unary_inplace(op: Unary, out: &mut [f32]) {
    match op {
        Unary::Relu => {
            for o in out.iter_mut() {
                *o = o.max(0.0);
            }
        }
        Unary::LeakyRelu(slope) => {
            for o in out.iter_mut() {
                let v = *o;
                *o = if v > 0.0 { v } else { slope * v };
            }
        }
        Unary::Sigmoid => {
            for o in out.iter_mut() {
                *o = sigmoid(*o);
            }
        }
    }
}

/// Elementwise unary activation.
pub fn unary(op: Unary, x: &[f32], out: &mut [f32]) {
    match op {
        Unary::Relu => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = v.max(0.0);
            }
        }
        Unary::LeakyRelu(slope) => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = if v > 0.0 { v } else { slope * v };
            }
        }
        Unary::Sigmoid => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = sigmoid(v);
            }
        }
    }
}

/// Row gather: `out[i] = src[index[i]]` over `cols`-wide rows.
///
/// # Panics
///
/// Panics if any index is `>= src_rows`.
pub fn gather_rows(src: &[f32], src_rows: usize, cols: usize, index: &[usize], out: &mut [f32]) {
    assert_eq!(src.len(), src_rows * cols, "src must be {src_rows}x{cols}");
    assert_eq!(
        out.len(),
        index.len() * cols,
        "out must be {}x{cols}",
        index.len()
    );
    for (i, &s) in index.iter().enumerate() {
        assert!(s < src_rows, "gather index {s} out of range");
        out[i * cols..(i + 1) * cols].copy_from_slice(&src[s * cols..(s + 1) * cols]);
    }
}

/// Row scatter-add: `out[index[i]] += src[i]` with `out` a zeroed (or
/// accumulating) `out_rows × cols` buffer, folding rows in input order.
///
/// # Panics
///
/// Panics if any index is `>= out_rows` or `index.len()` disagrees with
/// `src`.
pub fn scatter_add_rows(
    src: &[f32],
    index: &[usize],
    cols: usize,
    out_rows: usize,
    out: &mut [f32],
) {
    assert_eq!(
        src.len(),
        index.len() * cols,
        "index length must equal row count"
    );
    assert_eq!(out.len(), out_rows * cols, "out must be {out_rows}x{cols}");
    for (i, &dst) in index.iter().enumerate() {
        assert!(dst < out_rows, "scatter index {dst} out of range");
        let s = &src[i * cols..(i + 1) * cols];
        let d = &mut out[dst * cols..(dst + 1) * cols];
        for (o, &v) in d.iter_mut().zip(s) {
            *o += v;
        }
    }
}

/// Column-wise softmax within row segments: rows sharing `segments[i]` form
/// one softmax group per column. Three passes (max, exp+sum, divide) in row
/// order, exactly as the original tape op.
///
/// # Panics
///
/// Panics if `segments.len()` disagrees with `rows` or an id is out of range.
pub fn segment_softmax(
    x: &[f32],
    rows: usize,
    cols: usize,
    segments: &[usize],
    n_segments: usize,
    out: &mut [f32],
) {
    assert_eq!(segments.len(), rows, "one segment id per row required");
    assert_eq!(x.len(), rows * cols, "x must be {rows}x{cols}");
    assert_eq!(out.len(), rows * cols, "out must be {rows}x{cols}");
    let mut maxes = vec![f32::NEG_INFINITY; n_segments * cols];
    for i in 0..rows {
        let s = segments[i];
        assert!(s < n_segments, "segment id {s} out of range");
        for j in 0..cols {
            let m = &mut maxes[s * cols + j];
            *m = m.max(x[i * cols + j]);
        }
    }
    let mut sums = vec![0.0f32; n_segments * cols];
    for i in 0..rows {
        let s = segments[i];
        for j in 0..cols {
            let e = (x[i * cols + j] - maxes[s * cols + j]).exp();
            out[i * cols + j] = e;
            sums[s * cols + j] += e;
        }
    }
    for i in 0..rows {
        let s = segments[i];
        for j in 0..cols {
            let denom = sums[s * cols + j].max(f32::MIN_POSITIVE);
            out[i * cols + j] /= denom;
        }
    }
}

/// Row-wise layer normalization with affine `gamma`, `beta` (each `1 × cols`).
pub fn layer_norm(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    rows: usize,
    cols: usize,
    eps: f32,
    out: &mut [f32],
) {
    assert_eq!(gamma.len(), cols, "gamma shape");
    assert_eq!(beta.len(), cols, "beta shape");
    assert_eq!(x.len(), rows * cols, "x must be {rows}x{cols}");
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        let mean = row.iter().sum::<f32>() / row.len() as f32;
        let var = row.iter().map(|&v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (cix, &xv) in row.iter().enumerate() {
            let xhat = (xv - mean) * inv;
            out[r * cols + cix] = gamma[cix] * xhat + beta[cix];
        }
    }
}

/// Per-column batch statistics of the row-major `x` (`cols` wide), added
/// into the zeroed `cols`-long `mean` and `inv`: the mean over rows and
/// `1 / sqrt(var + eps)` of the biased variance.
///
/// Two row-major sweeps, one accumulator per column: memory is read in the
/// order it is laid out, and every column's sum still folds down the rows in
/// ascending order from `0.0`, so the values are those of a
/// column-by-column walk bit for bit. Shared by [`batch_norm`] and the
/// tape's batch norm backward.
pub fn batch_stats(
    x: &[f32],
    rows: usize,
    cols: usize,
    eps: f32,
    mean: &mut [f32],
    inv: &mut [f32],
) {
    debug_assert_eq!(x.len(), rows * cols, "x must be {rows}x{cols}");
    let rn = rows.max(1) as f32;
    // `max(1)`: a zero-width `x` is empty and has no rows to chunk.
    for row in x.chunks_exact(cols.max(1)) {
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in mean.iter_mut() {
        *m /= rn;
    }
    for row in x.chunks_exact(cols.max(1)) {
        for ((s, &v), &m) in inv.iter_mut().zip(row).zip(mean.iter()) {
            *s += (v - m).powi(2);
        }
    }
    for s in inv.iter_mut() {
        *s = 1.0 / (*s / rn + eps).sqrt();
    }
}

/// Column-wise batch normalization (training-mode statistics over rows) with
/// affine `gamma`, `beta` (each `1 × cols`): [`batch_stats`], then one
/// row-major sweep applying the affine map.
pub fn batch_norm(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    rows: usize,
    cols: usize,
    eps: f32,
    out: &mut [f32],
) {
    assert_eq!(gamma.len(), cols, "gamma shape");
    assert_eq!(beta.len(), cols, "beta shape");
    assert_eq!(x.len(), rows * cols, "x must be {rows}x{cols}");
    let (mut mean, mut inv) = (vec![0.0f32; cols], vec![0.0f32; cols]);
    batch_stats(x, rows, cols, eps, &mut mean, &mut inv);
    let rows_io = out
        .chunks_exact_mut(cols.max(1))
        .zip(x.chunks_exact(cols.max(1)));
    for (o_row, row) in rows_io {
        let stats = mean.iter().zip(&inv).zip(gamma.iter().zip(beta));
        for ((o, &v), ((&m, &k), (&g, &b))) in o_row.iter_mut().zip(row).zip(stats) {
            let xhat = (v - m) * k;
            *o = g * xhat + b;
        }
    }
}

/// The inner loops of the band engine, as the walks and the segment
/// kernels call them. Those loops are written once and do all
/// their arithmetic through these, so a backend chooses how the
/// arithmetic runs — scalar or on SIMD lanes — never which terms meet in
/// which order.
///
/// * `row_update(w, x_row, out_row)`: `out_row[d] += w · x_row[d]` for every
///   `d`, one `mul` then one `add` per element. The elements are
///   independent, so lanes may run across `d`.
/// * `row_mul_add(w_row, x_row, out_row)`: `out_row[d] += w_row[d] ·
///   x_row[d]`, the same per element with a weight per feature.
/// * `weight_grads(slots, x, d_out, base, dim, out)`: assigns to `out[j]` the
///   weight-gradient value of `slots[j]`, folded from `acc = +0.0` over the
///   features `d` in ascending order as `acc + d_lo[d]·x_hi[d]`, then
///   `acc + d_hi[d]·x_lo[d]` (`x_lo` is row `slots[j].lo` of `x`, and so
///   on). `x` and `d_out` are slabs whose row 0 is global path row `base`.
///   The slots are independent, so lanes may run across slots, one slot's
///   fold per lane.
#[derive(Debug, Clone, Copy)]
pub struct BandLanes {
    /// `out_row += w · x_row`, elementwise.
    pub row_update: fn(f32, &[f32], &mut [f32]),
    /// `out_row += w_row ⊙ x_row`, elementwise.
    pub row_mul_add: fn(&[f32], &[f32], &mut [f32]),
    /// The weight-gradient value of each slot of a run, into `out`.
    pub weight_grads: WeightGrads,
}

/// [`BandLanes::weight_grads`]: `(slots, x, d_out, base, dim, out)`.
pub type WeightGrads = fn(&[BandSlot], &[f32], &[f32], usize, usize, &mut [f32]);

impl BandLanes {
    /// The scalar loops: the reference every SIMD tier is held to, and what
    /// `ReferenceBackend` and `dist::exec` run.
    pub const SCALAR: BandLanes = BandLanes {
        row_update: scalar_row_update,
        row_mul_add: scalar_row_mul_add,
        weight_grads: scalar_weight_grads,
    };
}

fn scalar_row_update(w: f32, x_row: &[f32], out_row: &mut [f32]) {
    for (o, &v) in out_row.iter_mut().zip(x_row) {
        *o += w * v;
    }
}

fn scalar_row_mul_add(w_row: &[f32], x_row: &[f32], out_row: &mut [f32]) {
    for ((o, &w), &v) in out_row.iter_mut().zip(w_row).zip(x_row) {
        *o += w * v;
    }
}

fn scalar_weight_grads(
    slots: &[BandSlot],
    x: &[f32],
    d_out: &[f32],
    base: usize,
    dim: usize,
    out: &mut [f32],
) {
    for (o, s) in out.iter_mut().zip(slots) {
        let (lo, hi) = (s.lo - base, s.hi - base);
        let (x_lo, x_hi) = (row(x, lo, dim), row(x, hi, dim));
        let (d_lo, d_hi) = (row(d_out, lo, dim), row(d_out, hi, dim));
        let mut acc = 0.0f32;
        for d in 0..dim {
            acc += d_lo[d] * x_hi[d];
            acc += d_hi[d] * x_lo[d];
        }
        *o = acc;
    }
}

/// Row `r` of a row-major `dim`-wide slab, as a `dim`-element slice.
#[inline]
fn row(buf: &[f32], r: usize, dim: usize) -> &[f32] {
    &buf[r * dim..(r + 1) * dim]
}

/// Rows `a < b` of the `dim`-wide `buf`, as two disjoint mutable slices.
#[inline]
fn two_rows(buf: &mut [f32], a: usize, b: usize, dim: usize) -> (&mut [f32], &mut [f32]) {
    let (head, tail) = buf.split_at_mut(b * dim);
    (&mut head[a * dim..(a + 1) * dim], &mut tail[..dim])
}

/// Slots per [`BandLanes::weight_grads`] call of the weight-gradient walk,
/// which scatters each run's values by edge from a stack buffer of this
/// size. A multiple of the SIMD tiers' 8-slot group, so only the last run
/// can leave slots to the scalar loop, and short, so that one run's scatter
/// stores drain while the next run folds.
const WALK_SLOT_RUN: usize = 64;

/// Asserts that `buf` holds one `dim`-wide row per path position of `band`,
/// naming the offending argument. Every band entry point checks its
/// arguments through this, once, before any job is spawned.
fn assert_path_rows(band: &BandMask, dim: usize, name: &str, buf: &[f32]) {
    assert_eq!(
        buf.len(),
        band.len() * dim,
        "{name} must be L x dim = {} x {dim}",
        band.len()
    );
}

/// Where a slot walk finds the row of a path position, in every buffer it
/// reads and writes.
trait PathRows {
    /// Whether `row(lo) < row(hi)` for every slot, so that a slot's two rows
    /// split the output without a comparison.
    const ASCENDING: bool;
    /// The row of path position `pos`.
    fn row_at(&self, pos: usize) -> usize;
}

/// One row per path position: the band engine's own layout.
struct PathOrder;

impl PathRows for PathOrder {
    const ASCENDING: bool = true;
    #[inline(always)]
    fn row_at(&self, pos: usize) -> usize {
        pos
    }
}

/// A batch's position → node map: position `p` reads and writes node row
/// `self[p]`, and a revisited node sits at several positions.
impl PathRows for [usize] {
    const ASCENDING: bool = false;
    #[inline(always)]
    fn row_at(&self, pos: usize) -> usize {
        self[pos]
    }
}

/// The weights of a slot walk, per slot and per direction, and how one
/// direction's update runs on the lanes.
trait SlotWeights {
    /// Adds slot `j` (`s`)'s weighted `x_row` into `out_row`: its `hi` row
    /// into its `lo` row when `into_lo`, else its `lo` row into its `hi`
    /// row.
    fn update(
        &self,
        lanes: BandLanes,
        j: usize,
        s: &BandSlot,
        into_lo: bool,
        x_row: &[f32],
        out_row: &mut [f32],
    );
}

/// One weight per working-graph edge, the same both ways, one head: the
/// symmetric `A` of [`banded_aggregate`].
struct EdgeWeights<'a>(&'a [f32]);

impl SlotWeights for EdgeWeights<'_> {
    #[inline(always)]
    fn update(&self, lanes: BandLanes, _: usize, s: &BandSlot, _: bool, x: &[f32], o: &mut [f32]) {
        (lanes.row_update)(self.0[s.edge], x, o);
    }
}

/// The message whose weights slot `j`'s update into its `lo` row
/// (`into_lo`) or its `hi` row carries: `hi → lo` (`2j + 1`) weights the one
/// into `lo` and `lo → hi` (`2j`) the one into `hi` ([`BandRoute`]).
/// `transposed` swaps the two, which is the walk of the backward pass:
/// there each message carries gradient from its destination back to its
/// source.
#[inline(always)]
fn message_of(j: usize, into_lo: bool, transposed: bool) -> usize {
    2 * j + usize::from(into_lo != transposed)
}

/// Attention weights, one row of `heads` per message: head `h` weights the
/// `h`-th of `heads` equal column blocks, one row update per head.
struct MessageWeights<'a> {
    attn: &'a [f32],
    heads: usize,
    transposed: bool,
}

impl SlotWeights for MessageWeights<'_> {
    #[inline(always)]
    fn update(
        &self,
        lanes: BandLanes,
        j: usize,
        _: &BandSlot,
        into_lo: bool,
        x: &[f32],
        o: &mut [f32],
    ) {
        let msg = message_of(j, into_lo, self.transposed);
        let weights = &self.attn[msg * self.heads..(msg + 1) * self.heads];
        // `max(1)`: a zero-width row has no blocks to update.
        let width = (o.len() / self.heads).max(1);
        for ((&w, x_block), o_block) in weights.iter().zip(x.chunks(width)).zip(o.chunks_mut(width))
        {
            (lanes.row_update)(w, x_block, o_block);
        }
    }
}

/// Per-feature weights, one row of `dim` per message — the attention form
/// with one head per feature: one lane-wise multiply-add per direction.
struct FeatureWeights<'a> {
    gates: &'a [f32],
    transposed: bool,
}

impl SlotWeights for FeatureWeights<'_> {
    #[inline(always)]
    fn update(
        &self,
        lanes: BandLanes,
        j: usize,
        _: &BandSlot,
        into_lo: bool,
        x: &[f32],
        o: &mut [f32],
    ) {
        let msg = message_of(j, into_lo, self.transposed);
        (lanes.row_mul_add)(row(self.gates, msg, o.len()), x, o);
    }
}

/// The slot walk, written once: every slot `j` of `slots`, in order, adds
/// its weighted `x[row(hi)]` into `out[row(lo)]` and its weighted
/// `x[row(lo)]` into `out[row(hi)]`, with the slot's weights for that
/// direction. A slot's two rows are distinct (no slot joins a position to
/// one carrying the same node), so its updates touch different rows and
/// their order within the slot changes no bit; across slots each row takes
/// its updates in slot order. The band engine's walk is the [`PathOrder`],
/// [`EdgeWeights`] instance — one row update per direction, the loop it has
/// always been.
fn slot_walk<R: PathRows + ?Sized, W: SlotWeights>(
    lanes: BandLanes,
    slots: &[BandSlot],
    rows: &R,
    weights: &W,
    x: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    for (j, s) in slots.iter().enumerate() {
        let (lo, hi) = (rows.row_at(s.lo), rows.row_at(s.hi));
        let (out_lo, out_hi) = if R::ASCENDING || lo < hi {
            two_rows(out, lo, hi, dim)
        } else {
            let (out_hi, out_lo) = two_rows(out, hi, lo, dim);
            (out_lo, out_hi)
        };
        weights.update(lanes, j, s, true, row(x, hi, dim), out_lo);
        weights.update(lanes, j, s, false, row(x, lo, dim), out_hi);
    }
}

/// The slot walk — the reference every band test compares against *and* the
/// one-worker kernel: masked banded aggregation into the caller's zeroed
/// `L × dim` buffer `out`.
///
/// `x` is row-major `L × dim` (one row per path position), `weights` has one
/// entry per working-graph edge. Every active slot `(lo, hi, e)` contributes
/// `w[e] · x[hi]` to row `lo` and `w[e] · x[lo]` to row `hi` — the symmetric
/// weighted 1-hop neighbor sum of banded attention, applied in ascending
/// `(lo, offset)` slot order. Two slots may write the same row, so the walk
/// cannot be split across workers. Each slot's two row updates touch
/// different rows of `out` and read only `x`, so running one after the other
/// is the per-element interleaving they replaced, bit for bit.
///
/// # Panics
///
/// Panics if `x` or `out` is not `band.len() * dim` long.
pub fn banded_aggregate_serial(
    lanes: BandLanes,
    band: &BandMask,
    x: &[f32],
    dim: usize,
    weights: &[f32],
    out: &mut [f32],
) {
    assert_path_rows(band, dim, "x", x);
    assert_path_rows(band, dim, "out", out);
    let weights = EdgeWeights(weights);
    slot_walk(
        lanes,
        band.active_slots(),
        &PathOrder,
        &weights,
        x,
        dim,
        out,
    );
}

/// The clipped walk — the slot walk restricted to the output rows
/// `[row_lo, row_hi)` of `chunk`'s owned range: it visits, in the walk's
/// order, every slot that can touch one of those rows (those whose `lo` lies
/// in `[row_lo - ω, row_hi)`) and makes only the updates that land in the
/// range. Each row therefore takes exactly the walk's updates in the walk's
/// order, and nobody else touches it, so chunks can run concurrently. Per
/// slot it costs the walk's two row updates or fewer plus two comparisons.
///
/// `x` and `out` are *slabs*: `x` covers global path rows from `x_base` and
/// `out` from `out_base`. [`banded_aggregate_with_plan`] passes the whole `x`
/// (base 0) and each chunk's own slice of the output; a distributed worker
/// holds only its segment's ±ω read extent and passes that slab's base for
/// both. The bits do not depend on where the rows live in memory.
///
/// # Panics
///
/// Panics if the requested rows fall outside `chunk`'s owned range or the
/// slabs do not cover the rows the walk touches.
#[allow(clippy::too_many_arguments)]
pub fn banded_aggregate_segment(
    lanes: BandLanes,
    band: &BandMask,
    chunk: &Chunk,
    row_lo: usize,
    row_hi: usize,
    x: &[f32],
    x_base: usize,
    dim: usize,
    weights: &[f32],
    out: &mut [f32],
    out_base: usize,
) {
    assert!(
        chunk.start <= row_lo && row_hi <= chunk.end,
        "rows [{row_lo}, {row_hi}) outside owned range [{}, {})",
        chunk.start,
        chunk.end
    );
    assert!(
        x_base <= chunk.read_lo && (chunk.read_hi - x_base) * dim <= x.len(),
        "x slab of {} values at row {x_base} does not cover read extent [{}, {})",
        x.len(),
        chunk.read_lo,
        chunk.read_hi
    );
    assert!(
        out_base <= row_lo && (row_hi - out_base) * dim <= out.len(),
        "out slab does not cover rows [{row_lo}, {row_hi})"
    );
    let (slots, w_max) = (band.active_slots(), band.window());
    let first = slots.partition_point(|s| s.lo + w_max < row_lo);
    let end = slots.partition_point(|s| s.lo < row_hi);
    let owned = row_lo..row_hi;
    for s in &slots[first..end] {
        let w = weights[s.edge];
        if owned.contains(&s.lo) {
            check_read(chunk, s.hi);
            let out_row = &mut out[(s.lo - out_base) * dim..(s.lo - out_base + 1) * dim];
            (lanes.row_update)(w, row(x, s.hi - x_base, dim), out_row);
        }
        if owned.contains(&s.hi) {
            check_read(chunk, s.lo);
            let out_row = &mut out[(s.hi - out_base) * dim..(s.hi - out_base + 1) * dim];
            (lanes.row_update)(w, row(x, s.lo - x_base, dim), out_row);
        }
    }
}

/// Banded aggregation under a thread budget, into the caller's zeroed
/// `L × dim` buffer `out` — bit-identical to [`banded_aggregate_serial`] for
/// every worker count.
///
/// One worker runs the slot walk itself; more than one run its clipped walk
/// ([`banded_aggregate_segment`]) over the one-chunk-per-worker plan, each
/// for the rows it owns. The choice reads only `par.effective_threads()`:
/// on one thread the plain walk skips the clipping and the plan.
///
/// # Panics
///
/// Panics if `x` or `out` is not `band.len() * dim` long.
pub fn banded_aggregate(
    lanes: BandLanes,
    band: &BandMask,
    x: &[f32],
    dim: usize,
    weights: &[f32],
    par: &Parallelism,
    out: &mut [f32],
) {
    let _span = mega_obs::span("band_aggregate");
    if par.effective_threads() <= 1 {
        return banded_aggregate_serial(lanes, band, x, dim, weights, out);
    }
    let plan = ChunkPlan::for_band(band, par);
    banded_aggregate_with_plan(lanes, band, x, dim, weights, &plan, out);
}

/// [`banded_aggregate`]'s clipped walks over an explicit, caller-supplied
/// [`ChunkPlan`]: one job per chunk ([`join_workers`]), each writing its
/// owned rows straight into its disjoint slice of `out`.
///
/// The equivalence grid sweeps chunk geometries through this entry point and
/// the `race-check` harness drives it with deliberately corrupt plans
/// (`ChunkPlan::from_raw_parts`) to prove the shadow writer map fires;
/// [`banded_aggregate`] calls it with the validated plan `par` resolves to.
/// Under `race-check`, every chunk's owned rows are claimed in a shared
/// writer-id map *before* any job is spawned (overlap and coverage gaps panic
/// up front), and every read is checked against the chunk's ±ω window.
///
/// # Panics
///
/// Panics if `x` or `out` is not `band.len() * dim` long, or the plan's
/// chunks do not partition the path in order.
pub fn banded_aggregate_with_plan(
    lanes: BandLanes,
    band: &BandMask,
    x: &[f32],
    dim: usize,
    weights: &[f32],
    plan: &ChunkPlan,
    out: &mut [f32],
) {
    assert_path_rows(band, dim, "x", x);
    assert_path_rows(band, dim, "out", out);
    if x.is_empty() {
        return;
    }
    #[cfg(feature = "race-check")]
    {
        let writers = race::WriterMap::new("output row", plan.len());
        for (chunk_id, chunk) in plan.chunks().iter().enumerate() {
            writers.claim_range(chunk.start, chunk.end, chunk_id as u32);
        }
        writers.assert_complete();
    }
    let mut jobs = Vec::with_capacity(plan.chunks().len());
    let mut rest = out;
    let mut cursor = 0usize;
    for chunk in plan.chunks() {
        assert!(
            chunk.start == cursor && chunk.end >= cursor,
            "chunks must partition the path in order: chunk [{}, {}) follows row {cursor}",
            chunk.start,
            chunk.end
        );
        let (rows, tail) = rest.split_at_mut((chunk.end - cursor) * dim);
        rest = tail;
        cursor = chunk.end;
        jobs.push(move || {
            let (lo, hi) = (chunk.start, chunk.end);
            banded_aggregate_segment(lanes, band, chunk, lo, hi, x, 0, dim, weights, rows, lo);
        });
    }
    join_workers(jobs);
}

/// The slot walk of the backward pass with respect to the per-edge weights,
/// into the caller's per-edge buffer `out` — the reference and the
/// one-worker kernel, like [`banded_aggregate_serial`].
///
/// `out[e] = ⟨d_out[lo], x[hi]⟩ + ⟨d_out[hi], x[lo]⟩` for the slot claimed by
/// edge `e`: assigned, not added to. Edges without a slot keep what `out`
/// held, hence the zeroed `out`.
///
/// # Panics
///
/// Panics if `x` or `d_out` is not `band.len() * dim` long, or a slot's edge
/// id is outside `out`.
pub fn banded_weight_grad_serial(
    lanes: BandLanes,
    band: &BandMask,
    x: &[f32],
    d_out: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    assert_path_rows(band, dim, "x", x);
    assert_path_rows(band, dim, "d_out", d_out);
    let mut vals = [0.0f32; WALK_SLOT_RUN];
    for run in band.active_slots().chunks(WALK_SLOT_RUN) {
        let vals = &mut vals[..run.len()];
        (lanes.weight_grads)(run, x, d_out, 0, dim, vals);
        for (s, &v) in run.iter().zip(vals.iter()) {
            out[s.edge] = v;
        }
    }
}

/// The active slots `chunk` owns — those whose `lo` row lies in its owned
/// range — as an index range into `band.active_slots()`. The list is sorted
/// ascending by `(lo, offset)`, so they are one contiguous run: two binary
/// searches, and consecutive chunks own consecutive runs.
pub fn owned_slots(band: &BandMask, chunk: &Chunk) -> Range<usize> {
    let slots = band.active_slots();
    slots.partition_point(|s| s.lo < chunk.start)..slots.partition_point(|s| s.lo < chunk.end)
}

/// Segment-local weight gradient: the value of every slot `chunk` owns
/// ([`owned_slots`]), in slot order, into the equally long `out`. `x` and
/// `d_out` are slabs whose row 0 is global path row `base`; both must span
/// `chunk`'s ±ω read extent, since a slot reaches up to ω rows past the owned
/// range. Each edge claims exactly one slot, so scattering the runs of
/// different chunks by `slot.edge` reproduces [`banded_weight_grad_serial`].
///
/// # Panics
///
/// Panics if `out` is not as long as the run of owned slots.
#[allow(clippy::too_many_arguments)]
pub fn banded_weight_grad_segment(
    lanes: BandLanes,
    band: &BandMask,
    chunk: &Chunk,
    x: &[f32],
    d_out: &[f32],
    base: usize,
    dim: usize,
    out: &mut [f32],
) {
    let slots = &band.active_slots()[owned_slots(band, chunk)];
    assert_eq!(
        out.len(),
        slots.len(),
        "out must hold one value per owned slot"
    );
    for s in slots {
        check_read(chunk, s.lo);
        check_read(chunk, s.hi);
    }
    (lanes.weight_grads)(slots, x, d_out, base, dim, out);
}

/// Weight gradient under a thread budget, into the caller's zeroed per-edge
/// buffer `out` — bit-identical to [`banded_weight_grad_serial`] for every
/// worker count, and selected between the walk and its chunked replay the
/// way [`banded_aggregate`] is.
///
/// # Panics
///
/// Panics if `x` or `d_out` is not `band.len() * dim` long.
pub fn banded_weight_grad(
    lanes: BandLanes,
    band: &BandMask,
    x: &[f32],
    d_out: &[f32],
    dim: usize,
    par: &Parallelism,
    out: &mut [f32],
) {
    let _span = mega_obs::span("band_wgrad");
    if par.effective_threads() <= 1 {
        return banded_weight_grad_serial(lanes, band, x, d_out, dim, out);
    }
    let plan = ChunkPlan::for_band(band, par);
    banded_weight_grad_with_plan(lanes, band, x, d_out, dim, &plan, out);
}

/// [`banded_weight_grad`] over an explicit, caller-supplied [`ChunkPlan`] —
/// the race-checkable entry point, mirroring [`banded_aggregate_with_plan`].
///
/// One job per chunk folds the chunk's owned slots
/// ([`banded_weight_grad_segment`]) into its disjoint run of a slot-ordered
/// scratch; the runs are scattered to `out[slot.edge]` once all jobs are
/// done, so every `out[e]` is computed by a single chunk as the walk would.
///
/// Under `race-check`, each chunk claims every edge slot it owns in a shared
/// writer-id map before any job is spawned (a second claim means two chunks
/// both think they own the slot's `lo` row), and both slot endpoints are
/// checked against the chunk's ±ω read window. No completeness assertion:
/// edges without an active slot are legitimately never written.
///
/// # Panics
///
/// Panics if `x` or `d_out` is not `band.len() * dim` long, or the plan's
/// chunks do not own the active slots in order.
pub fn banded_weight_grad_with_plan(
    lanes: BandLanes,
    band: &BandMask,
    x: &[f32],
    d_out: &[f32],
    dim: usize,
    plan: &ChunkPlan,
    out: &mut [f32],
) {
    assert_path_rows(band, dim, "x", x);
    assert_path_rows(band, dim, "d_out", d_out);
    if x.is_empty() {
        return;
    }
    #[cfg(feature = "race-check")]
    {
        let writers = race::WriterMap::new("edge slot", out.len());
        for (chunk_id, chunk) in plan.chunks().iter().enumerate() {
            for s in &band.active_slots()[owned_slots(band, chunk)] {
                writers.claim(s.edge, chunk_id as u32);
            }
        }
    }
    let slots = band.active_slots();
    let mut by_slot = vec![0.0f32; slots.len()];
    let mut jobs = Vec::with_capacity(plan.chunks().len());
    let mut rest = by_slot.as_mut_slice();
    let mut cursor = 0usize;
    for chunk in plan.chunks() {
        let owned = owned_slots(band, chunk);
        assert!(
            owned.start == cursor,
            "chunks must own the active slots in order: chunk [{}, {}) owns slots from \
             {}, expected {cursor}",
            chunk.start,
            chunk.end,
            owned.start
        );
        let (vals, tail) = rest.split_at_mut(owned.len());
        rest = tail;
        cursor = owned.end;
        jobs.push(move || banded_weight_grad_segment(lanes, band, chunk, x, d_out, 0, dim, vals));
    }
    join_workers(jobs);
    for (s, &v) in slots.iter().zip(&by_slot) {
        out[s.edge] = v;
    }
}

/// A band over a batch's path positions, read through the position → node
/// map: the operand of the attention form of the slot walk.
///
/// Slot `j` carries two messages: `2j` runs `lo → hi` (its source is the
/// node at position `lo`, its destination the node at `hi`) and `2j + 1`
/// runs `hi → lo`. A message tensor has one row per message in that order,
/// a node tensor one row per node.
#[derive(Debug, Clone, Copy)]
pub struct BandRoute<'a> {
    /// The active slots over the batch's path positions, ascending.
    pub slots: &'a [BandSlot],
    /// The node row of each path position.
    pub rows: &'a [usize],
}

impl BandRoute<'_> {
    /// Number of messages: two per slot.
    pub fn message_count(&self) -> usize {
        2 * self.slots.len()
    }

    /// `(source row, destination row)` of every message, in message order.
    pub fn messages(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slots.iter().flat_map(move |s| {
            let (lo, hi) = (self.rows[s.lo], self.rows[s.hi]);
            [(lo, hi), (hi, lo)]
        })
    }
}

/// What a band edge-score pass makes of message `i` from `src` to `dst`
/// out of the node rows `q[dst]` and `k[src]` and the message row `ee[i]`,
/// element by element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeScore {
    /// `((q[dst] ⊙ k[src]) ⊙ ee) · scale`: Graph Transformer's scaled
    /// product.
    Product(f32),
    /// `(k[src] + q[dst]) + ee`: GatedGCN's edge pre-activation and GAT's
    /// additive score.
    Sum,
}

/// Band edge scores: row `i` of `out` (`m × dim`) is `form` applied to
/// message `i`'s rows, `q` and `k` being node rows and `ee` message rows.
/// Each element takes the roundings of the `mul`, `mul`, `scale` chain (the
/// product form) or the `add`, `add` chain (the sum form) it replaces, in
/// that order, so the output is that chain's on gathered rows, bit for bit.
/// `out` is write-only.
pub fn band_edge_scores(
    route: BandRoute<'_>,
    q: &[f32],
    k: &[f32],
    ee: &[f32],
    dim: usize,
    form: EdgeScore,
    out: &mut [f32],
) {
    let _span = mega_obs::span("band_edge_scores");
    debug_assert_eq!(ee.len(), route.message_count() * dim, "ee must be m x dim");
    debug_assert_eq!(out.len(), ee.len(), "out must be m x dim");
    match form {
        EdgeScore::Product(scale) => {
            score_rows(route, q, k, ee, dim, out, |qv, kv, ev| {
                ((qv * kv) * ev) * scale
            });
        }
        EdgeScore::Sum => score_rows(route, q, k, ee, dim, out, |qv, kv, ev| (kv + qv) + ev),
    }
}

/// [`band_edge_scores`]' loop for one form: `out[i] = f(q[dst], k[src],
/// ee[i])` per element.
#[inline(always)]
fn score_rows(
    route: BandRoute<'_>,
    q: &[f32],
    k: &[f32],
    ee: &[f32],
    dim: usize,
    out: &mut [f32],
    f: impl Fn(f32, f32, f32) -> f32,
) {
    // `max(1)`: a zero-width tensor has no rows to chunk.
    let rows = out
        .chunks_exact_mut(dim.max(1))
        .zip(ee.chunks_exact(dim.max(1)));
    for ((src, dst), (o_row, e_row)) in route.messages().zip(rows) {
        let (q_row, k_row) = (row(q, dst, dim), row(k, src, dim));
        for (((o, &qv), &kv), &ev) in o_row.iter_mut().zip(q_row).zip(k_row).zip(e_row) {
            *o = f(qv, kv, ev);
        }
    }
}

/// The backward pass of [`band_edge_scores`] for the upstream gradient `g`
/// (`m × dim`), which is rewritten in place into the gradient with respect to
/// `ee`; the gradients with respect to `q` and `k` are added into the zeroed
/// node-row buffers `dq` and `dk`.
///
/// Per element the products are those of the unfused chain's backward arms
/// — for the product form `gs = g · scale`, `dee = gs · (q ⊙ k)`,
/// `dq += (gs · ee) · k`, `dk += (gs · ee) · q`; for the sum form `g` itself
/// three times, so `dee` is `g` and `q`, `k` are not read — so `dee` keeps
/// its bits. `dq` and `dk` sum each node's messages in message order
/// straight into its row, where the chain first summed them per path
/// position: the grouping of the sums is all that differs.
#[allow(clippy::too_many_arguments)]
pub fn band_edge_scores_grad(
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
    let _span = mega_obs::span("band_edge_scores_grad");
    debug_assert_eq!(g.len(), route.message_count() * dim, "g must be m x dim");
    debug_assert_eq!(ee.len(), g.len(), "ee must be m x dim");
    debug_assert_eq!((dq.len(), dk.len()), (q.len(), k.len()), "node-row grads");
    let rows = g
        .chunks_exact_mut(dim.max(1))
        .zip(ee.chunks_exact(dim.max(1)));
    let messages = route.messages().zip(rows);
    match form {
        EdgeScore::Product(scale) => {
            for ((src, dst), (g_row, e_row)) in messages {
                let (q_row, k_row) = (row(q, dst, dim), row(k, src, dim));
                let dq_row = &mut dq[dst * dim..(dst + 1) * dim];
                let dk_row = &mut dk[src * dim..(src + 1) * dim];
                for c in 0..dim {
                    let gs = g_row[c] * scale;
                    let dqk = gs * e_row[c];
                    g_row[c] = gs * (q_row[c] * k_row[c]);
                    dq_row[c] += dqk * k_row[c];
                    dk_row[c] += dqk * q_row[c];
                }
            }
        }
        EdgeScore::Sum => {
            for ((src, dst), (g_row, _)) in messages {
                let dq_row = &mut dq[dst * dim..(dst + 1) * dim];
                let dk_row = &mut dk[src * dim..(src + 1) * dim];
                for ((dqv, dkv), &gv) in dq_row.iter_mut().zip(dk_row.iter_mut()).zip(&*g_row) {
                    *dqv += gv;
                    *dkv += gv;
                }
            }
        }
    }
}

/// The attention form of the slot walk: for every message, `attn`'s weight
/// of each head times the head's block of the source's `x` row, added into
/// the destination's row of the zeroed node-row buffer `out` — the weighted
/// aggregation `h_agg[dst] += α · v[src]` in message order, each element one
/// `mul` then one `add`, so the bits of `mul_col_broadcast` followed by
/// `scatter_add_rows`. `attn` is `m × heads`. With one head per feature
/// (`heads == dim`) the weights are per feature — the gated sum
/// `num[dst] += η ⊙ v[src]`, the bits of `mul` followed by
/// `scatter_add_rows` — and each update is one [`BandLanes::row_mul_add`]
/// instead of `dim` one-element row updates.
///
/// `transposed` runs every message backwards (`out[src] += α · x[dst]`):
/// with `x` the gradient of the aggregate that is the gradient with respect
/// to the values. The walk runs on one worker, so its bits never depend on a
/// thread budget.
#[allow(clippy::too_many_arguments)]
pub fn band_attend(
    lanes: BandLanes,
    route: BandRoute<'_>,
    x: &[f32],
    attn: &[f32],
    heads: usize,
    dim: usize,
    transposed: bool,
    out: &mut [f32],
) {
    let _span = mega_obs::span("band_attend");
    debug_assert_eq!(
        attn.len(),
        route.message_count() * heads,
        "attn must be m x heads"
    );
    debug_assert!(
        heads > 0 && dim.is_multiple_of(heads),
        "heads must divide dim"
    );
    debug_assert_eq!(x.len(), out.len(), "x and out must be node rows");
    if heads == dim {
        let gates = FeatureWeights {
            gates: attn,
            transposed,
        };
        slot_walk(lanes, route.slots, route.rows, &gates, x, dim, out);
    } else {
        let weights = MessageWeights {
            attn,
            heads,
            transposed,
        };
        slot_walk(lanes, route.slots, route.rows, &weights, x, dim, out);
    }
}

/// The gradient of [`band_attend`] with respect to its weights, into the
/// `m × heads` buffer `out`: entry `(i, h)` is the dot product of head `h`'s
/// blocks of `g[dst]` and `v[src]` for message `i`, folded from `+0.0` in
/// ascending feature order as `acc + g·v` — the weight gradient of
/// `mul_col_broadcast` on gathered rows, bit for bit. With one head per
/// feature each entry is the one-term fold `0.0 + g·v`, computed as such
/// in one pass over the row. A fold, so it runs scalar on every backend.
/// `out` is write-only.
pub fn band_attend_weight_grad(
    route: BandRoute<'_>,
    g: &[f32],
    v: &[f32],
    heads: usize,
    dim: usize,
    out: &mut [f32],
) {
    let _span = mega_obs::span("band_attend_weight_grad");
    debug_assert_eq!(
        out.len(),
        route.message_count() * heads,
        "out must be m x heads"
    );
    debug_assert!(
        heads > 0 && dim.is_multiple_of(heads),
        "heads must divide dim"
    );
    let width = dim / heads;
    for ((src, dst), o_row) in route.messages().zip(out.chunks_exact_mut(heads.max(1))) {
        let (g_row, v_row) = (row(g, dst, dim), row(v, src, dim));
        if heads == dim {
            for ((o, &gv), &vv) in o_row.iter_mut().zip(g_row).zip(v_row) {
                *o = 0.0 + gv * vv;
            }
            continue;
        }
        for (h, o) in o_row.iter_mut().enumerate() {
            let cols = h * width..(h + 1) * width;
            let mut acc = 0.0f32;
            for (&gv, &vv) in g_row[cols.clone()].iter().zip(&v_row[cols]) {
                acc += gv * vv;
            }
            *o = acc;
        }
    }
}
