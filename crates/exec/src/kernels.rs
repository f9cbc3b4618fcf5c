//! Shared reference kernels — the single home of every hand-rolled loop.
//!
//! Each function here is the *reference* implementation the rest of the
//! workspace dispatches to: plain scalar loops with a fixed, documented
//! accumulation order and no floating-point reassociation. The dense kernels
//! were lifted from `mega-tensor` (the former `Tensor::matmul` inner
//! loops) and the banded kernels from
//! `mega_core::parallel`; their bit patterns are contractual — backends that
//! override a kernel must preserve the per-output-element accumulation order
//! (see `SimdBackend`), and the parallel variants replay the serial order
//! per owned output row so results are bit-identical for every thread count.
//!
//! Output conventions: `out` must have exactly the output length; kernels
//! that accumulate (`matmul*`, `scatter_add_rows`, the banded aggregates)
//! require `out` to be zeroed on entry, all others overwrite every element.

use crate::partition;
use crate::Unary;
use mega_core::band::BandMask;
use mega_core::parallel::{join_workers, ordered_map, Chunk, ChunkPlan, Parallelism};

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

/// One output row of a matrix product: `out_row += a_row · b`, folding the
/// `k` contributions in ascending order. Rows that came out of embedding
/// lookups are mostly zero, hence the skip.
#[inline]
pub fn matmul_row(a_row: &[f32], b: &[f32], m: usize, out_row: &mut [f32]) {
    for (kk, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = &b[kk * m..(kk + 1) * m];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += a * bv;
        }
    }
}

/// Serial matrix product `out += a · b` with `a` of shape `n × k` and `b` of
/// shape `k × m`; `out` must be a zeroed `n × m` buffer.
///
/// # Panics
///
/// Panics when any slice length disagrees with the shapes.
pub fn matmul(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_eq!(a.len(), n * k, "a must be {n}x{k}");
    assert_eq!(b.len(), k * m, "b must be {k}x{m}");
    assert_eq!(out.len(), n * m, "out must be {n}x{m}");
    for i in 0..n {
        matmul_row(&a[i * k..(i + 1) * k], b, m, &mut out[i * m..(i + 1) * m]);
    }
}

/// Matrix product under a thread budget, bit-identical to [`matmul`] for
/// every thread count: output rows are split into contiguous per-worker
/// ranges and each row is produced by the exact serial row kernel, written
/// directly into its disjoint slice of `out` (no partial buffers, no
/// copy-back).
///
/// # Panics
///
/// Panics when any slice length disagrees with the shapes.
pub fn matmul_par(
    a: &[f32],
    b: &[f32],
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
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    ranges: &[(usize, usize)],
    out: &mut [f32],
) {
    assert_eq!(a.len(), n * k, "a must be {n}x{k}");
    assert_eq!(b.len(), k * m, "b must be {k}x{m}");
    partition::par_rows(out, n, m, ranges, |lo, hi, rows| {
        for r in lo..hi {
            let out_row = &mut rows[(r - lo) * m..(r - lo + 1) * m];
            matmul_row(&a[r * k..(r + 1) * k], b, m, out_row);
        }
    });
}

/// `out = aᵀ` for a row-major `rows × cols` input.
pub fn transpose(a: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert_eq!(a.len(), rows * cols, "a must be {rows}x{cols}");
    assert_eq!(out.len(), rows * cols, "out must be {cols}x{rows}");
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
}

/// Elementwise `out = a + b`.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// Elementwise `out = a - b`.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
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

/// Adds the `1 × m` bias row to every row of the `n × m` input.
pub fn add_bias_rows(x: &[f32], bias: &[f32], n: usize, m: usize, out: &mut [f32]) {
    assert_eq!(bias.len(), m, "bias must be 1x{m}");
    for r in 0..n {
        for c in 0..m {
            out[r * m + c] = x[r * m + c] + bias[c];
        }
    }
}

/// Fused bias + ReLU applied in place: `out[r, c] = max(out[r, c] + bias[c], 0)`.
///
/// Same arithmetic as `add_bias_rows` followed by a ReLU pass — the fusion
/// saves one full memory sweep, never a bit of precision.
pub fn bias_relu_inplace(out: &mut [f32], bias: &[f32], n: usize, m: usize) {
    assert_eq!(bias.len(), m, "bias must be 1x{m}");
    for r in 0..n {
        let row = &mut out[r * m..(r + 1) * m];
        for (o, &b) in row.iter_mut().zip(bias) {
            *o = (*o + b).max(0.0);
        }
    }
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
                *o = 1.0 / (1.0 + (-*o).exp());
            }
        }
        Unary::Tanh => {
            for o in out.iter_mut() {
                *o = o.tanh();
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
                *o = 1.0 / (1.0 + (-v).exp());
            }
        }
        Unary::Tanh => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = v.tanh();
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

/// Scales row `r` of the `rows × cols` input by `factors[r]`.
///
/// # Panics
///
/// Panics if `factors.len() != rows`.
pub fn scale_rows(x: &[f32], factors: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(x.len(), factors.len() * cols, "one factor per row required");
    for (r, &k) in factors.iter().enumerate() {
        for c in 0..cols {
            out[r * cols + c] = x[r * cols + c] * k;
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

/// One active slot's weight-gradient contribution, folding the `lo`/`hi`
/// products interleaved per feature — the shared inner loop of the serial,
/// chunk-parallel, and segment-local weight-grad kernels (they must agree
/// bit-for-bit, so there is exactly one copy of it). Takes the four rows as
/// slices so callers can offset into segment-local slabs.
#[inline]
fn slot_weight_grad(
    band_dim: usize,
    x_lo: &[f32],
    x_hi: &[f32],
    d_lo: &[f32],
    d_hi: &[f32],
) -> f32 {
    let mut acc = 0.0f32;
    for d in 0..band_dim {
        acc += d_lo[d] * x_hi[d];
        acc += d_hi[d] * x_lo[d];
    }
    acc
}

/// Row `r` of a full-length `L × dim` slab, as a `dim`-element slice.
#[inline]
fn row(buf: &[f32], r: usize, dim: usize) -> &[f32] {
    &buf[r * dim..(r + 1) * dim]
}

/// Serial reference kernel: masked banded aggregation.
///
/// `x` is row-major `L × dim` (one row per path position), `weights` has one
/// entry per working-graph edge. Every active slot `(lo, hi, e)` contributes
/// `w[e] · x[hi]` to row `lo` and `w[e] · x[lo]` to row `hi` — the symmetric
/// weighted 1-hop neighbor sum of banded attention, applied in ascending
/// `(lo, offset)` slot order.
///
/// # Panics
///
/// Panics if `x.len() != band.len() * dim`.
pub fn banded_aggregate_serial(
    band: &BandMask,
    x: &[f32],
    dim: usize,
    weights: &[f32],
) -> Vec<f32> {
    assert_eq!(x.len(), band.len() * dim, "x must be L x dim");
    let mut out = vec![0.0f32; x.len()];
    for s in band.active_slots() {
        let w = weights[s.edge];
        for d in 0..dim {
            out[s.lo * dim + d] += w * x[s.hi * dim + d];
            out[s.hi * dim + d] += w * x[s.lo * dim + d];
        }
    }
    out
}

/// Contributions to owned rows of `chunk`, folded in serial slot order.
///
/// For each owned row `r`, the serial kernel's contributions arrive in
/// ascending slot order: first slots `(lo, r)` with `lo` ascending in
/// `[r - ω, r)` (row `r` is the `hi` side), then slots `(r, r + k)` with `k`
/// ascending (row `r` is the `lo` side). Replaying exactly that order makes
/// each owned row bit-identical to the serial result.
fn aggregate_chunk_into(
    band: &BandMask,
    chunk: &Chunk,
    x: &[f32],
    dim: usize,
    weights: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), chunk.owned_len() * dim);
    banded_aggregate_segment(
        band,
        chunk,
        chunk.start,
        chunk.end,
        x,
        0,
        dim,
        weights,
        out,
        chunk.start,
    );
}

/// Segment-local banded aggregation: rows `[row_lo, row_hi)` of `chunk`'s
/// owned range, folded in exactly `aggregate_chunk_into`'s serial slot
/// order, but reading `x` and writing `out` as *slabs* — `x` covers global
/// path rows `[x_base, x_base + x.len()/dim)` and `out` covers
/// `[out_base, out_base + out.len()/dim)`. This is the distributed
/// executor's entry point: each worker holds only its segment's ±ω read
/// extent, so every index must be translated by the slab base.
///
/// Bit-identical to the same rows of [`banded_aggregate_serial`] for any
/// slab placement, because the per-row fold order never changes — only
/// where the rows live in memory.
///
/// # Panics
///
/// Panics if the requested rows fall outside `chunk`'s owned range or the
/// slabs do not cover the rows the fold touches.
#[allow(clippy::too_many_arguments)]
pub fn banded_aggregate_segment(
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
        x_base <= chunk.read_lo && chunk.read_hi <= x_base + x.len() / dim.max(1),
        "x slab [{x_base}, {}) does not cover read extent [{}, {})",
        x_base + x.len() / dim.max(1),
        chunk.read_lo,
        chunk.read_hi
    );
    assert!(
        out_base <= row_lo && (row_hi - out_base) * dim <= out.len(),
        "out slab does not cover rows [{row_lo}, {row_hi})"
    );
    let w_max = band.window();
    for r in row_lo..row_hi {
        let row = &mut out[(r - out_base) * dim..(r - out_base + 1) * dim];
        for lo in r.saturating_sub(w_max)..r {
            if let Some(e) = band.slot(lo, r - lo) {
                check_read(chunk, lo);
                let w = weights[e];
                for d in 0..dim {
                    row[d] += w * x[(lo - x_base) * dim + d];
                }
            }
        }
        for k in 1..=w_max {
            if let Some(e) = band.slot(r, k) {
                check_read(chunk, r + k);
                let w = weights[e];
                for d in 0..dim {
                    row[d] += w * x[(r + k - x_base) * dim + d];
                }
            }
        }
    }
}

/// Segment-local weight gradient: the `(edge, value)` pairs for every active
/// slot whose `lo` row is owned by `chunk`, in ascending `(lo, offset)` slot
/// order, computed by the shared `slot_weight_grad` fold. `x` and `d_out`
/// are slabs covering global rows `[x_base, …)` and `[d_base, …)`; both
/// must span `chunk`'s ±ω read extent, since a slot reaches up to ω rows
/// past the owned range. Each edge claims exactly one slot, so the returned
/// pairs are disjoint across segments and a fixed-order merge reproduces
/// [`banded_weight_grad_serial`] bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn banded_weight_grad_segment(
    band: &BandMask,
    chunk: &Chunk,
    x: &[f32],
    x_base: usize,
    d_out: &[f32],
    d_base: usize,
    dim: usize,
) -> Vec<(usize, f32)> {
    let slots = band.active_slots();
    let begin = slots.partition_point(|s| s.lo < chunk.start);
    let end = slots.partition_point(|s| s.lo < chunk.end);
    let mut local: Vec<(usize, f32)> = Vec::with_capacity(end - begin);
    for s in &slots[begin..end] {
        check_read(chunk, s.lo);
        check_read(chunk, s.hi);
        local.push((
            s.edge,
            slot_weight_grad(
                dim,
                row(x, s.lo - x_base, dim),
                row(x, s.hi - x_base, dim),
                row(d_out, s.lo - d_base, dim),
                row(d_out, s.hi - d_base, dim),
            ),
        ));
    }
    local
}

/// Parallel chunked banded aggregation — bit-identical to
/// [`banded_aggregate_serial`] for every thread count and chunk size.
///
/// The reduction concatenates owned row ranges in chunk order; no partial is
/// ever summed across chunks.
///
/// # Panics
///
/// Panics if `x.len() != band.len() * dim`.
pub fn banded_aggregate(
    band: &BandMask,
    x: &[f32],
    dim: usize,
    weights: &[f32],
    par: &Parallelism,
) -> Vec<f32> {
    assert_eq!(x.len(), band.len() * dim, "x must be L x dim");
    let _span = mega_obs::span("band_aggregate");
    mega_obs::counter_add("core.band.aggregate_calls", 1);
    // One worker cannot benefit from the per-row scan layout; the serial
    // slot-walk produces the identical bits at a fraction of the cost.
    if par.effective_threads() <= 1 {
        return banded_aggregate_serial(band, x, dim, weights);
    }
    let plan = ChunkPlan::for_band_cached(band, par);
    banded_aggregate_with_plan(band, x, dim, weights, &plan, par.effective_threads())
}

/// [`banded_aggregate`] over an explicit, caller-supplied [`ChunkPlan`].
///
/// This is the entry point the `race-check` harness drives with
/// deliberately corrupt plans (overlapping or gappy ownership built via
/// `ChunkPlan::from_raw_parts`) to prove the shadow writer map actually
/// fires; [`banded_aggregate`] calls it with the validated plan the
/// `Parallelism` config resolves to. Under `race-check`, every chunk's
/// owned rows are claimed in a shared writer-id map *before* any work is
/// scheduled (cross-chunk overlap and coverage gaps panic up front), and
/// every read is bounds-checked against the chunk's ±ω window.
///
/// Scheduling: the plan's chunks are grouped into at most `threads`
/// contiguous *runs*, one worker per run, and each chunk writes its rows
/// directly into the run's disjoint slice of the output. This keeps the
/// plan's chunk granularity (and the read-window geometry the race checker
/// verifies) while paying the spawn/timer overhead once per worker rather
/// than once per chunk — the per-chunk partial buffers and the O(L·dim)
/// concatenation copy of the previous reduction are gone entirely.
pub fn banded_aggregate_with_plan(
    band: &BandMask,
    x: &[f32],
    dim: usize,
    weights: &[f32],
    plan: &ChunkPlan,
    threads: usize,
) -> Vec<f32> {
    #[cfg(feature = "race-check")]
    {
        let writers = race::WriterMap::new("output row", plan.len());
        for (chunk_id, chunk) in plan.chunks().iter().enumerate() {
            writers.claim_range(chunk.start, chunk.end, chunk_id as u32);
        }
        writers.assert_complete();
    }
    let chunks = plan.chunks();
    let mut out = vec![0.0f32; x.len()];
    let workers = threads.max(1).min(chunks.len());
    let runs: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * chunks.len() / workers, (w + 1) * chunks.len() / workers))
        .filter(|(a, b)| a < b)
        .collect();
    let mut jobs = Vec::with_capacity(runs.len());
    let mut rest = out.as_mut_slice();
    let mut cursor = 0usize;
    for &(c0, c1) in &runs {
        let run = &chunks[c0..c1];
        let start = run[0].start;
        let end = run[run.len() - 1].end;
        assert!(
            start == cursor,
            "chunk runs must partition the path in order: run starts at \
             {start}, expected {cursor}"
        );
        let (rows, tail) = rest.split_at_mut((end - start) * dim);
        rest = tail;
        cursor = end;
        jobs.push(move || {
            let t = mega_obs::timer();
            for chunk in run {
                let lo = (chunk.start - start) * dim;
                let hi = (chunk.end - start) * dim;
                aggregate_chunk_into(band, chunk, x, dim, weights, &mut rows[lo..hi]);
            }
            t.observe("core.parallel.run_fwd_ns");
        });
    }
    join_workers(jobs);
    out
}

/// Backward pass with respect to the per-edge weights (serial reference).
///
/// `dw[e] = ⟨d_out[lo], x[hi]⟩ + ⟨d_out[hi], x[lo]⟩` for the slot claimed by
/// edge `e`.
pub fn banded_weight_grad_serial(
    band: &BandMask,
    x: &[f32],
    d_out: &[f32],
    dim: usize,
    edge_count: usize,
) -> Vec<f32> {
    let mut dw = vec![0.0f32; edge_count];
    for s in band.active_slots() {
        dw[s.edge] = slot_weight_grad(
            dim,
            row(x, s.lo, dim),
            row(x, s.hi, dim),
            row(d_out, s.lo, dim),
            row(d_out, s.hi, dim),
        );
    }
    dw
}

/// Parallel weight gradient: slots are partitioned by their owning chunk
/// (the chunk whose owned rows contain `slot.lo`); each edge claims exactly
/// one slot, so writes never collide and each `dw[e]` is computed by a single
/// chunk exactly as the serial kernel would — bit-identical by construction.
pub fn banded_weight_grad(
    band: &BandMask,
    x: &[f32],
    d_out: &[f32],
    dim: usize,
    edge_count: usize,
    par: &Parallelism,
) -> Vec<f32> {
    let _span = mega_obs::span("band_wgrad");
    mega_obs::counter_add("core.band.wgrad_calls", 1);
    if par.effective_threads() <= 1 {
        return banded_weight_grad_serial(band, x, d_out, dim, edge_count);
    }
    let plan = ChunkPlan::for_band_cached(band, par);
    banded_weight_grad_with_plan(
        band,
        x,
        d_out,
        dim,
        edge_count,
        &plan,
        par.effective_threads(),
    )
}

/// [`banded_weight_grad`] over an explicit, caller-supplied [`ChunkPlan`] —
/// the race-checkable entry point, mirroring [`banded_aggregate_with_plan`].
///
/// Under `race-check`, each chunk claims every edge slot it writes in a
/// shared writer-id map (each edge claims exactly one band slot, so a
/// second claim means two chunks both think they own the slot's `lo` row),
/// and both slot endpoints are bounds-checked against the chunk's ±ω read
/// window. No completeness assertion: edges without an active slot are
/// legitimately never written.
#[allow(clippy::too_many_arguments)]
pub fn banded_weight_grad_with_plan(
    band: &BandMask,
    x: &[f32],
    d_out: &[f32],
    dim: usize,
    edge_count: usize,
    plan: &ChunkPlan,
    threads: usize,
) -> Vec<f32> {
    #[cfg(feature = "race-check")]
    let writers = race::WriterMap::new("edge slot", edge_count);
    let slots = band.active_slots();
    let partials = ordered_map(plan.chunks(), threads, |chunk_id, chunk| {
        #[cfg(not(feature = "race-check"))]
        let _ = chunk_id;
        let t = mega_obs::timer();
        // `active_slots` is sorted ascending by `(lo, offset)`, so the slots
        // owned by this chunk (`start <= lo < end`) are one contiguous
        // subrange — two binary searches instead of the full-list scan that
        // made the kernel O(chunks × slots) and sank 4-thread scaling.
        let begin = slots.partition_point(|s| s.lo < chunk.start);
        let end = slots.partition_point(|s| s.lo < chunk.end);
        let mut local: Vec<(usize, f32)> = Vec::with_capacity(end - begin);
        for s in &slots[begin..end] {
            check_read(chunk, s.lo);
            check_read(chunk, s.hi);
            #[cfg(feature = "race-check")]
            writers.claim(s.edge, chunk_id as u32);
            local.push((
                s.edge,
                slot_weight_grad(
                    dim,
                    row(x, s.lo, dim),
                    row(x, s.hi, dim),
                    row(d_out, s.lo, dim),
                    row(d_out, s.hi, dim),
                ),
            ));
        }
        t.observe("core.parallel.chunk_wgrad_ns");
        local
    });
    let mut dw = vec![0.0f32; edge_count];
    for partial in partials {
        for (e, v) in partial {
            dw[e] = v;
        }
    }
    dw
}
