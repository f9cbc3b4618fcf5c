//! Explicit-width SIMD kernels over a packed strip layout.
//!
//! [`SimdBackend`] is the workspace's vectorized hot path: the GEMM tiles,
//! the elementwise family (`add`/`mul`/`scale`), the activations (the clamp family and the sigmoid),
//! the bias and bias-ReLU GEMM epilogues, layer norm's residual forward and
//! backward, and the two inner loops of the band kernels all run on
//! explicit-width lanes. No new dependencies: the
//! native tiers are `std::arch` intrinsics behind runtime
//! `is_x86_feature_detected!` checks, and every other architecture takes
//! the portable path. Three GEMM tiers, one tile driver ([`gemm_rows`]):
//!
//! | tier | tile (`MR` rows × `NR` = 32 columns) | accumulators | sigmoid | band row update | band weight gradient |
//! |---|---|---|---|---|---|
//! | AVX-512 (`avx512f`) | 6 × 32 | twelve `__m512` | 8 lanes (the AVX kernel) | 16 features per `__m512` | 8 slots per `__m256`, transposed fold |
//! | AVX (`avx` and `fma`) | 3 × 32 | twelve `__m256` | 8 lanes | 8 features per `__m256` | 8 slots per `__m256`, transposed fold |
//! | portable, `W` = 8 lanes | 4 × 32, one `W`-wide chunk at a time | four `[f32; W]` arrays | `W` lanes | `W` features per chunk | scalar |
//!
//! A native tile keeps its `MR × NR` block of `out` in registers for the
//! whole depth loop: per `k` step it loads one row of the packed strip once
//! and reuses it for `MR` broadcast multipliers, so twelve independent
//! `vfmadd` chains hide the FMA latency. The elementwise kernels, the
//! sigmoid included, run on the AVX lanes for both native tiers.
//!
//! **Operands are read where they lie.** A transposed `b` (`wᵀ` for
//! `dx = g · wᵀ`) is packed column by column straight from `w`; a
//! transposed `a` (`xᵀ` for `dw = xᵀ · g`) is read by the same tiles with
//! a stride: element `kk` of row `i` sits `kk · n` past `x[i]`, so the `MR`
//! broadcasts of one step are adjacent floats. No transpose is ever copied.
//! `out` is write-only: the tiles start from `setzero` and store, never
//! load, so whatever the buffer held is never read.
//!
//! **Bit-identity** with [`ReferenceBackend`] holds by construction:
//!
//! * Every lane owns one output element and folds `fma(a, b, acc)` in
//!   ascending `k` — `vfmadd` on the native tiers, `f32::mul_add` on the
//!   portable lanes, each the reference's one rounding per term — then
//!   stores `acc + 0.0`. No horizontal reductions: a horizontal sum would
//!   reassociate the fold and change the bits.
//! * The reference skips `a == 0.0` terms; the tiles add them, with no
//!   branch. When every `b` is finite a skipped term adds `±0`: a nonzero
//!   `acc` keeps its value, a zero one may change its sign, and the sign of
//!   a zero `acc` never reaches a nonzero sum (`fma(a, b, ±0)` is `a·b`
//!   rounded either way). So the two folds end equal or both zero, and the
//!   closing `+ 0.0` makes every zero `+0.0`. [`pack_strips`] checks that
//!   `b` is finite while it copies it; a product with a non-finite `b` runs
//!   the reference loops.
//! * Elementwise lanes are independent by definition; `vmaxps(x, 0)` and
//!   scalar `f32::max(x, 0.0)` agree on every input including `-0.0` and
//!   NaN (both return the second operand for NaN inputs).
//! * The sigmoid's lanes issue the steps of [`kernels::exp_ws`] and
//!   [`kernels::sigmoid`] in their order, each one IEEE `mul`, `add`, `sub`,
//!   `div`, compare-select or conversion, nothing fused: the sign flip is an
//!   `xor`, the clamp `vmaxps(lo, x)` then `vminps(hi, x)` (a NaN passes, as
//!   in the scalar `if lo > x`), and `2ⁿ` the truncating conversion of
//!   `(n + 127) · 2²³`. A NaN input makes every step's result that NaN, so
//!   no step meets two different NaNs.
//! * The band kernels keep the walks of `kernels` — the band engine's, its
//!   clipped form and the attention form — and swap only their inner
//!   loops ([`BandLanes`]). The row updates `out_row += w·x_row` and
//!   `out_row += w_row ⊙ x_row` run lanes across features: elements are
//!   independent, each still one `mul` then one `add`, rows still updated
//!   in slot order. The weight gradient folds each slot's
//!   `acc + d_lo[d]·x_hi[d]`, `acc + d_hi[d]·x_lo[d]` over `d` ascending
//!   from `+0.0`; lanes run across slots, never across one slot's
//!   features. Per 8-feature block, 8 slots' products are formed as rows
//!   (`p_j = d_lo_j·x_hi_j`, `q_j = d_hi_j·x_lo_j`, the scalar products
//!   elementwise) and transposed in registers, so vector `d` holds feature
//!   `d` of every slot and lane `j` adds `p[0], q[0], p[1], q[1], …` — the
//!   scalar order, term for term. A transpose moves values without
//!   touching them; features past the last full block and slots past the
//!   last full group continue in scalar code in the same order. Both native
//!   band lanes also prefetch the rows just ahead of the ones they touch,
//!   which moves time, never a value.
//!
//! * Layer norm's residual forward and backward ([`Backend::norm`]) run
//!   lanes across *rows*: a row's sums fold over its columns in ascending
//!   order from the `Sum` identity, so 8 rows' 8-column blocks are
//!   transposed in registers (the band weight gradient's [`transpose8`])
//!   and lane `r` adds column after column of row `r`, each step the scalar
//!   loop's one `add`, `sub`, `mul`, `div` or `sqrt`; columns past the last
//!   full block continue each lane in scalar code. The per-element sweeps
//!   (the residual add, the affine map, the gradient rows) run lanes across
//!   columns. Both native tiers fold 8 rows on `__m256`; the portable tier
//!   runs the scalar loops of [`kernels`].
//!
//! [`SimdBackend::all_on_host`] lists every tier the host can run, so tests
//! hold each of them to the reference; `backend_matmul` times them.

use crate::kernels::{self, BandLanes};
use crate::partition;
use crate::{Backend, BandRoute, Epilogue, NormKind, NormPass, Operand, ReferenceBackend, Unary};
use mega_core::band::{BandMask, BandSlot};
use mega_core::parallel::Parallelism;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Output rows per block: one block of rows shares each cache-resident
/// strip of packed `b`. A multiple of every tile height (6, 3, 4), so worker
/// ranges — cut at `MC` boundaries — split into whole tiles and only the
/// last tile of the last range can be short.
const MC: usize = 48;
/// Output columns per packed strip, and the width of every tile.
const NR: usize = 32;

/// Packs the `k × m` operand `b` into contiguous `k × NR` column strips,
/// zero-padded to `NR` wide — the layout the tiles stream through. A
/// row-major `b` is copied row by row, a transposed one (`wᵀ` read from
/// `w`) column by column, so neither layout costs a separate transpose.
/// Contiguous strips kill the power-of-two row stride that thrashes L1
/// sets, and each cache-resident strip is reused across `MC` output rows.
/// The copy is O(k·m) against O(n·k·m) multiply-adds that reuse it.
///
/// Returns `None` when `b` holds a non-finite value: the tiles' skipped
/// zero terms are invisible only when every `b` is finite (module docs).
fn pack_strips(b: Operand<'_>, k: usize, m: usize) -> Option<Vec<f32>> {
    let strips = m.div_ceil(NR);
    let mut packed = vec![0.0f32; strips * k * NR];
    let mut finite = true;
    // Without depth there is nothing to pack (and no strip to chunk by).
    for (s, slab) in packed.chunks_exact_mut((k * NR).max(1)).enumerate() {
        let jt = s * NR;
        let w = NR.min(m - jt);
        match b {
            Operand::RowMajor(b) => {
                for (kk, dst) in slab.chunks_exact_mut(NR).enumerate() {
                    let src = &b[kk * m + jt..kk * m + jt + w];
                    finite = src.iter().fold(finite, |f, v| f & v.is_finite());
                    dst[..w].copy_from_slice(src);
                }
            }
            Operand::Transposed(bt) => {
                for (j, col) in bt[jt * k..(jt + w) * k].chunks_exact(k).enumerate() {
                    for (kk, &v) in col.iter().enumerate() {
                        finite &= v.is_finite();
                        slab[kk * NR + j] = v;
                    }
                }
            }
        }
    }
    finite.then_some(packed)
}

/// The left operand as the tiles read it: row `i` of the logical `n × k`
/// matrix starts at `data[i · row_stride]` and its `kk`-th element sits
/// `kk · k_stride` further on. Row-major `a` has strides `(k, 1)`; a
/// transposed one, where row `i` of `a` is column `i` of the stored
/// matrix (`xᵀ` read from `x`), has `(1, n)`.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
}

impl<'a> Strided<'a> {
    fn new(a: Operand<'a>, n: usize, k: usize) -> Self {
        let (data, row_stride, k_stride) = match a {
            Operand::RowMajor(a) => (a, k, 1),
            Operand::Transposed(at) => (at, 1, n),
        };
        Strided {
            data,
            row_stride,
            k_stride,
        }
    }

    /// The storage from row `i`'s first element on; a tile reads its
    /// elements `k_stride` apart. Empty when there is no depth to read.
    fn row(self, i: usize) -> &'a [f32] {
        &self.data[(i * self.row_stride).min(self.data.len())..]
    }
}

/// Which tier a [`SimdBackend`] instance dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// 6 × 32 `__m512` GEMM tiles (x86-64 with AVX-512F, AVX and FMA,
    /// detected at runtime); the AVX elementwise kernels.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// 3 × 32 `__m256` GEMM tiles and elementwise kernels (x86-64 with AVX
    /// and FMA, detected at runtime).
    #[cfg(target_arch = "x86_64")]
    Avx,
    /// Portable `[f32; wide::W]` lanes.
    Portable,
}

/// Explicit-width vector backend: the widest native tier the host has, the
/// portable lanes otherwise. Bit-identical to [`ReferenceBackend`] for
/// every kernel (see the module docs for why), faster wherever lanes beat
/// scalars.
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    mode: Mode,
}

impl Default for SimdBackend {
    fn default() -> Self {
        SimdBackend::new()
    }
}

impl SimdBackend {
    /// Auto-detects the widest tier the CPU supports (8 portable lanes
    /// without AVX and FMA). Feature detection only: nothing is timed or
    /// allocated.
    pub fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("fma")
        {
            let mode = if std::arch::is_x86_feature_detected!("avx512f") {
                Mode::Avx512
            } else {
                Mode::Avx
            };
            return SimdBackend { mode };
        }
        SimdBackend::portable()
    }

    /// Every tier this host can run, widest first: the native tiers the
    /// CPU has (AVX-512 and AVX on an AVX-512 machine), then the portable
    /// tier. Tests hold each to the reference.
    pub fn all_on_host() -> Vec<SimdBackend> {
        let native: &[Mode] = match SimdBackend::new().mode {
            #[cfg(target_arch = "x86_64")]
            Mode::Avx512 => &[Mode::Avx512, Mode::Avx],
            #[cfg(target_arch = "x86_64")]
            Mode::Avx => &[Mode::Avx],
            Mode::Portable => &[],
        };
        native
            .iter()
            .map(|&mode| SimdBackend { mode })
            .chain([SimdBackend::portable()])
            .collect()
    }

    /// The portable scalar-lane tier, to test and time it on hosts that
    /// have a native tier.
    pub fn portable() -> Self {
        SimdBackend {
            mode: Mode::Portable,
        }
    }

    /// The tier's name: `avx512`, `avx` or `portable`.
    pub fn tier(&self) -> &'static str {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            Mode::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            Mode::Avx => "avx",
            Mode::Portable => "portable",
        }
    }

    /// The number of f32 lanes the tier's GEMM tile processes per vector op.
    pub fn lane_width(&self) -> usize {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            Mode::Avx512 => 16,
            #[cfg(target_arch = "x86_64")]
            Mode::Avx => 8,
            Mode::Portable => wide::W,
        }
    }
}

// ---------------------------------------------------------------------------
// The tile driver
// ---------------------------------------------------------------------------

/// The one GEMM driver every tier runs: rows `[lo, hi)` of `out = a · b`
/// (`part` holds exactly those rows) in `MC`-row blocks. Each block walks
/// the packed strips and covers its rows with `MR`-row calls of `tile`,
/// which folds the full depth of one `MR × NR` block of `out` in registers
/// and stores it over whatever `out` held; the `bias_row` epilogue (bias,
/// then ReLU when asked) then sweeps the block while it is still in cache.
///
/// `tile(a_rows, k_stride, strip, c, ldc)` reads element `kk` of row `r` of
/// `a` from `a_rows[r][kk · k_stride]`, the `k × NR` strip from `strip`,
/// and writes row `r` of its output block to `c[r·ldc..r·ldc + NR]`. Full
/// tiles write `out` in place. A short tile (the last rows of a range, or
/// the last strip when `NR ∤ m`) writes a stack block: its missing rows
/// repeat the last real row of `a`, and only the real rows and columns are
/// copied out.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<const MR: usize>(
    a: Strided<'_>,
    packed: &[f32],
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
    bias: Option<(&[f32], bool)>,
    part: &mut [f32],
    tile: impl Fn([&[f32]; MR], usize, &[f32], &mut [f32], usize),
    bias_row: impl Fn(&mut [f32], &[f32], bool),
) {
    let strips = m.div_ceil(NR);
    for ib in (lo..hi).step_by(MC) {
        let i_end = (ib + MC).min(hi);
        for s in 0..strips {
            let jt = s * NR;
            let w = NR.min(m - jt);
            let strip = &packed[s * k * NR..(s + 1) * k * NR];
            for ir in (ib..i_end).step_by(MR) {
                let rows = MR.min(i_end - ir);
                let a_rows = std::array::from_fn(|r| a.row(ir + r.min(rows - 1)));
                let c0 = (ir - lo) * m + jt;
                if rows == MR && w == NR {
                    tile(a_rows, a.k_stride, strip, &mut part[c0..], m);
                    continue;
                }
                let mut c = [[0.0f32; NR]; MR];
                tile(a_rows, a.k_stride, strip, c.as_flattened_mut(), NR);
                for (r, c_row) in c.iter().take(rows).enumerate() {
                    part[c0 + r * m..c0 + r * m + w].copy_from_slice(&c_row[..w]);
                }
            }
        }
        if let Some((bias, relu)) = bias {
            for row in part[(ib - lo) * m..(i_end - lo) * m].chunks_exact_mut(m.max(1)) {
                bias_row(row, bias, relu);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Portable lane structs
// ---------------------------------------------------------------------------

/// Portable `W`-lane vectors: scalar per-lane ops with the exact semantics
/// of the native tiers (and of the reference loops — each lane is one
/// independent scalar chain). The fixed-width arrays give LLVM the same
/// unrolled shape the intrinsics spell out explicitly.
mod wide {
    use super::{Strided, NR};

    /// Lanes per portable vector; divides [`NR`]. Widths 4 and 16 timed
    /// the same as 8 (`bench_results/backend_matmul.json`'s lane sweep).
    pub const W: usize = 8;

    /// Tile height of the portable tier: 4 rows × `W` lanes of
    /// accumulators stay within eight 128-bit registers.
    pub const MR: usize = 4;

    /// [`super::gemm_rows`] with the `W`-lane tile and epilogue.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_rows(
        a: Strided<'_>,
        packed: &[f32],
        k: usize,
        m: usize,
        lo: usize,
        hi: usize,
        bias: Option<(&[f32], bool)>,
        part: &mut [f32],
    ) {
        super::gemm_rows(a, packed, k, m, lo, hi, bias, part, tile, bias_relu_row);
    }

    /// The portable tile: each `W`-wide column chunk of the `MR × NR`
    /// block folds the full depth in `MR` accumulator arrays from `+0.0`,
    /// every lane `fma(a, b, acc)` in ascending `k`, no zero test, and
    /// stores `acc + 0.0`.
    pub fn tile(a: [&[f32]; MR], ks: usize, strip: &[f32], c: &mut [f32], ldc: usize) {
        let k = strip.len() / NR;
        for base in (0..NR).step_by(W) {
            let mut acc = [[0.0f32; W]; MR];
            for kk in 0..k {
                let b = &strip[kk * NR + base..kk * NR + base + W];
                for (v, a_row) in acc.iter_mut().zip(&a) {
                    let av = a_row[kk * ks];
                    for l in 0..W {
                        // mega-lint: allow(no-fma, reason = "every backend fuses the GEMM fold; the reference defines it with mul_add")
                        v[l] = av.mul_add(b[l], v[l]);
                    }
                }
            }
            for (r, v) in acc.iter().enumerate() {
                for (o, &x) in c[r * ldc + base..r * ldc + base + W].iter_mut().zip(v) {
                    *o = x + 0.0;
                }
            }
        }
    }

    /// `out = out + bias`, then `max(·, 0)` when `relu`, over one row.
    #[inline]
    pub fn bias_relu_row(out_row: &mut [f32], bias: &[f32], relu: bool) {
        let f = |o: f32, b: f32| if relu { (o + b).max(0.0) } else { o + b };
        let mut j = 0;
        while j + W <= out_row.len() {
            for l in 0..W {
                out_row[j + l] = f(out_row[j + l], bias[j + l]);
            }
            j += W;
        }
        while j < out_row.len() {
            out_row[j] = f(out_row[j], bias[j]);
            j += 1;
        }
    }

    /// `W`-lane binary elementwise loop with a scalar tail.
    #[inline]
    pub fn zip(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
        let mut i = 0;
        while i + W <= out.len() {
            for l in 0..W {
                out[i + l] = f(a[i + l], b[i + l]);
            }
            i += W;
        }
        while i < out.len() {
            out[i] = f(a[i], b[i]);
            i += 1;
        }
    }

    /// The band row update `out_row += w · x_row` in `W`-lane chunks with a
    /// scalar tail.
    pub fn row_update(w: f32, x_row: &[f32], out_row: &mut [f32]) {
        let (mut os, mut xs) = (out_row.chunks_exact_mut(W), x_row.chunks_exact(W));
        for (o, x) in (&mut os).zip(&mut xs) {
            for l in 0..W {
                o[l] += w * x[l];
            }
        }
        for (o, &v) in os.into_remainder().iter_mut().zip(xs.remainder()) {
            *o += w * v;
        }
    }

    /// The band row update with per-feature weights, `out_row += w_row ⊙
    /// x_row`, in `W`-lane chunks with a scalar tail.
    pub fn row_mul_add(w_row: &[f32], x_row: &[f32], out_row: &mut [f32]) {
        let mut os = out_row.chunks_exact_mut(W);
        let (mut ws, mut xs) = (w_row.chunks_exact(W), x_row.chunks_exact(W));
        for ((o, w), x) in (&mut os).zip(&mut ws).zip(&mut xs) {
            for l in 0..W {
                o[l] += w[l] * x[l];
            }
        }
        let tail = os.into_remainder().iter_mut().zip(ws.remainder());
        for ((o, &w), &v) in tail.zip(xs.remainder()) {
            *o += w * v;
        }
    }

    /// `W`-lane unary elementwise loop with a scalar tail.
    #[inline]
    pub fn map(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
        let mut i = 0;
        while i + W <= out.len() {
            for l in 0..W {
                out[i + l] = f(x[i + l]);
            }
            i += W;
        }
        while i < out.len() {
            out[i] = f(x[i]);
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 tile (x86-64, runtime-detected)
// ---------------------------------------------------------------------------

/// The 6 × 32 `__m512` GEMM tile. It carries
/// `#[target_feature(enable = "avx512f")]`; [`SimdBackend`] only reaches
/// it after `is_x86_feature_detected!("avx512f")` succeeded, which makes
/// the `unsafe` call site in the dispatcher sound.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::NR;
    use std::arch::x86_64::*;

    /// Tile height: six rows × two `__m512` = twelve accumulators.
    pub const MR: usize = 6;

    /// Folds the full depth of one `MR × NR` block of `out` from `+0.0`:
    /// per `k` step two 16-lane strip loads, six broadcasts of
    /// `a[r][kk · ks]` and twelve `vfmadd`, the reference's one rounding per
    /// term. Stores the block plus `+0.0`; never loads `c`.
    #[target_feature(enable = "avx512f")]
    pub fn tile(a: [&[f32]; MR], ks: usize, strip: &[f32], c: &mut [f32], ldc: usize) {
        let k = strip.len() / NR;
        let span = if k == 0 { 0 } else { (k - 1) * ks + 1 };
        let a = a.map(|row| &row[..span]);
        let c = &mut c[..(MR - 1) * ldc + NR];
        // SAFETY: the slicing above (which panics rather than truncates)
        // leaves every row of `a` exactly `(k − 1)·ks + 1` floats and `c`
        // holding `NR` floats at `r·ldc` for every `r < MR`; `strip` holds
        // at least `k · NR`. So for `kk < k` the broadcast of `a[r][kk·ks]`
        // (offset at most `(k − 1)·ks`) and the 16-lane loads at `kk·NR`
        // and `kk·NR + 16` are in bounds, as are the stores to `c`.
        // AVX-512F itself is guaranteed by this module's
        // `#[target_feature]` + runtime-detection contract.
        unsafe {
            let cp = c.as_mut_ptr();
            let ap = a.map(<[f32]>::as_ptr);
            let mut acc = [_mm512_setzero_ps(); 2 * MR];
            let sp = strip.as_ptr();
            for kk in 0..k {
                let b0 = _mm512_loadu_ps(sp.add(kk * NR));
                let b1 = _mm512_loadu_ps(sp.add(kk * NR + 16));
                for r in 0..MR {
                    let av = _mm512_set1_ps(*ap[r].add(kk * ks));
                    // mega-lint: allow(no-fma, reason = "every backend fuses the GEMM fold; the reference defines it with mul_add")
                    acc[2 * r] = _mm512_fmadd_ps(av, b0, acc[2 * r]);
                    // mega-lint: allow(no-fma, reason = "every backend fuses the GEMM fold; the reference defines it with mul_add")
                    acc[2 * r + 1] = _mm512_fmadd_ps(av, b1, acc[2 * r + 1]);
                }
            }
            let zero = _mm512_setzero_ps();
            for r in 0..MR {
                _mm512_storeu_ps(cp.add(r * ldc), _mm512_add_ps(acc[2 * r], zero));
                _mm512_storeu_ps(cp.add(r * ldc + 16), _mm512_add_ps(acc[2 * r + 1], zero));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX lane structs (x86-64, runtime-detected)
// ---------------------------------------------------------------------------

/// 8-lane `__m256` kernels. Every function here carries
/// `#[target_feature(enable = "avx")]`, the tile `avx,fma`; [`SimdBackend`]
/// only reaches this module after `is_x86_feature_detected!` found both,
/// which makes the `unsafe` call sites in the dispatcher sound.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::NR;
    use crate::kernels::{
        self, EXPONENT_SHIFT, EXP_HI, EXP_LO, EXP_POLY, LN2_HI, LN2_LO, ROUND_MAGIC,
    };
    use std::arch::x86_64::*;

    /// Tile height: three rows × four `__m256` = twelve accumulators.
    pub const MR: usize = 3;

    /// Folds the full depth of one `MR × NR` block of `out` from `+0.0`:
    /// per `k` step three broadcasts of `a[r][kk · ks]`, then four 8-lane
    /// strip loads, each feeding three `vfmadd` (the reference's one
    /// rounding per term) — twelve accumulators, three broadcasts and one
    /// strip vector fit the sixteen `ymm` registers without spilling.
    /// Stores the block plus `+0.0`; never loads `c`.
    #[target_feature(enable = "avx,fma")]
    pub fn tile(a: [&[f32]; MR], ks: usize, strip: &[f32], c: &mut [f32], ldc: usize) {
        let k = strip.len() / NR;
        let span = if k == 0 { 0 } else { (k - 1) * ks + 1 };
        let a = a.map(|row| &row[..span]);
        let c = &mut c[..(MR - 1) * ldc + NR];
        // SAFETY: the slicing above (which panics rather than truncates)
        // leaves every row of `a` exactly `(k − 1)·ks + 1` floats and `c`
        // holding `NR` floats at `r·ldc` for every `r < MR`; `strip` holds
        // at least `k · NR`. So for `kk < k` the broadcast of `a[r][kk·ks]`
        // (offset at most `(k − 1)·ks`) and the 8-lane loads at
        // `kk·NR + 8q`, `q < 4`, are in bounds, as are the stores to `c`.
        // AVX and FMA per the module contract.
        unsafe {
            let cp = c.as_mut_ptr();
            let ap = a.map(<[f32]>::as_ptr);
            let mut acc = [_mm256_setzero_ps(); 4 * MR];
            let sp = strip.as_ptr();
            let mut av = [_mm256_setzero_ps(); MR];
            for kk in 0..k {
                let s = sp.add(kk * NR);
                for r in 0..MR {
                    av[r] = _mm256_set1_ps(*ap[r].add(kk * ks));
                }
                for q in 0..4 {
                    let b = _mm256_loadu_ps(s.add(8 * q));
                    for r in 0..MR {
                        // mega-lint: allow(no-fma, reason = "every backend fuses the GEMM fold; the reference defines it with mul_add")
                        acc[4 * r + q] = _mm256_fmadd_ps(av[r], b, acc[4 * r + q]);
                    }
                }
            }
            let zero = _mm256_setzero_ps();
            for r in 0..MR {
                for q in 0..4 {
                    let v = _mm256_add_ps(acc[4 * r + q], zero);
                    _mm256_storeu_ps(cp.add(r * ldc + 8 * q), v);
                }
            }
        }
    }

    /// `out = out + bias`, then `max(·, 0)` when `relu`, over one row;
    /// `vmaxps(x, 0)` matches scalar `f32::max(x, 0.0)` on every input
    /// (both return the second operand for NaN).
    #[target_feature(enable = "avx")]
    pub fn bias_relu_row(out_row: &mut [f32], bias: &[f32], relu: bool) {
        let bias = &bias[..out_row.len()];
        // SAFETY: the vector loop only touches `j..j + 8` while
        // `j + 8 <= out_row.len()`, and `bias` was just sliced to that
        // length (panicking if shorter), so every 8-lane load/store on
        // both pointers is in bounds; the tail is safe indexing. AVX is
        // guaranteed by the module contract.
        unsafe {
            let zero = _mm256_setzero_ps();
            let n = out_row.len();
            let o = out_row.as_mut_ptr();
            let b = bias.as_ptr();
            let mut j = 0;
            while j + 8 <= n {
                let v = _mm256_add_ps(_mm256_loadu_ps(o.add(j)), _mm256_loadu_ps(b.add(j)));
                _mm256_storeu_ps(o.add(j), if relu { _mm256_max_ps(v, zero) } else { v });
                j += 8;
            }
            while j < n {
                let v = out_row[j] + bias[j];
                out_row[j] = if relu { v.max(0.0) } else { v };
                j += 1;
            }
        }
    }

    /// 8-lane binary elementwise dispatch with a scalar tail.
    macro_rules! avx_zip {
        ($name:ident, $vop:expr, $sop:expr) => {
            /// Lane-wise binary elementwise kernel (scalar tail past the
            /// last full vector).
            #[target_feature(enable = "avx")]
            pub fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
                // SAFETY: the vector loop reads/writes `i..i + 8` only
                // while `i + 8 <= out.len()`, and `a`/`b` are at least as
                // long as `out` (the backend trait's elementwise contract,
                // upheld by every caller via equal-length slices); the
                // tail uses safe indexing. AVX per the module contract.
                unsafe {
                    let n = out.len();
                    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
                    let mut i = 0;
                    while i + 8 <= n {
                        let v = $vop(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                        _mm256_storeu_ps(po.add(i), v);
                        i += 8;
                    }
                    while i < n {
                        out[i] = $sop(a[i], b[i]);
                        i += 1;
                    }
                }
            }
        };
    }

    avx_zip!(add, _mm256_add_ps, |x: f32, y: f32| x + y);
    avx_zip!(mul, _mm256_mul_ps, |x: f32, y: f32| x * y);

    /// `out = k · a`, broadcast multiply.
    #[target_feature(enable = "avx")]
    pub fn scale(a: &[f32], k: f32, out: &mut [f32]) {
        // SAFETY: loads/stores touch `i..i + 8` only while
        // `i + 8 <= out.len()` and `a` is at least as long as `out`
        // (equal-length elementwise contract); tail is safe indexing.
        // AVX per the module contract.
        unsafe {
            let vk = _mm256_set1_ps(k);
            let n = out.len();
            let (pa, po) = (a.as_ptr(), out.as_mut_ptr());
            let mut i = 0;
            while i + 8 <= n {
                _mm256_storeu_ps(po.add(i), _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), vk));
                i += 8;
            }
            while i < n {
                out[i] = a[i] * k;
                i += 1;
            }
        }
    }

    /// `out = max(x, 0)`.
    #[target_feature(enable = "avx")]
    pub fn relu(x: &[f32], out: &mut [f32]) {
        // SAFETY: loads/stores touch `i..i + 8` only while
        // `i + 8 <= out.len()` and `x` is at least as long as `out`
        // (equal-length elementwise contract); tail is safe indexing.
        // AVX per the module contract.
        unsafe {
            let zero = _mm256_setzero_ps();
            let n = out.len();
            let (px, po) = (x.as_ptr(), out.as_mut_ptr());
            let mut i = 0;
            while i + 8 <= n {
                _mm256_storeu_ps(po.add(i), _mm256_max_ps(_mm256_loadu_ps(px.add(i)), zero));
                i += 8;
            }
            while i < n {
                out[i] = x[i].max(0.0);
                i += 1;
            }
        }
    }

    /// `out = x > 0 ? x : slope·x` via compare + blend; `_CMP_GT_OQ` is
    /// false for NaN, matching the scalar `if v > 0.0` else-branch.
    #[target_feature(enable = "avx")]
    pub fn leaky_relu(x: &[f32], slope: f32, out: &mut [f32]) {
        // SAFETY: loads/stores touch `i..i + 8` only while
        // `i + 8 <= out.len()` and `x` is at least as long as `out`
        // (equal-length elementwise contract); tail is safe indexing.
        // AVX per the module contract.
        unsafe {
            let zero = _mm256_setzero_ps();
            let vs = _mm256_set1_ps(slope);
            let n = out.len();
            let (px, po) = (x.as_ptr(), out.as_mut_ptr());
            let mut i = 0;
            while i + 8 <= n {
                let v = _mm256_loadu_ps(px.add(i));
                let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
                let scaled = _mm256_mul_ps(v, vs);
                _mm256_storeu_ps(po.add(i), _mm256_blendv_ps(scaled, v, mask));
                i += 8;
            }
            while i < n {
                out[i] = if x[i] > 0.0 { x[i] } else { slope * x[i] };
                i += 1;
            }
        }
    }

    /// `out = sigmoid(x)` on 8 lanes, the steps of [`kernels::exp_ws`] and
    /// [`kernels::sigmoid`] in their order (module docs), and a scalar tail.
    #[target_feature(enable = "avx")]
    pub fn sigmoid(x: &[f32], out: &mut [f32]) {
        let x = &x[..out.len()];
        let n = out.len();
        let (px, po) = (x.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= out.len()`, and `x` was just cut to the same
            // length; AVX per the module contract.
            unsafe { _mm256_storeu_ps(po.add(i), sigmoid8(_mm256_loadu_ps(px.add(i)))) };
            i += 8;
        }
        for (o, &v) in out[i..].iter_mut().zip(&x[i..]) {
            *o = kernels::sigmoid(v);
        }
    }

    /// [`kernels::sigmoid`] of 8 lanes.
    #[target_feature(enable = "avx")]
    #[inline]
    fn sigmoid8(v: __m256) -> __m256 {
        let c = _mm256_set1_ps;
        let x = _mm256_xor_ps(v, c(-0.0));
        let x = _mm256_min_ps(c(EXP_HI), _mm256_max_ps(c(EXP_LO), x));
        let t = _mm256_add_ps(
            _mm256_mul_ps(x, c(std::f32::consts::LOG2_E)),
            c(ROUND_MAGIC),
        );
        let n = _mm256_sub_ps(t, c(ROUND_MAGIC));
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, c(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, c(LN2_LO)));
        let mut y = c(EXP_POLY[0]);
        for &p in &EXP_POLY[1..] {
            y = _mm256_add_ps(_mm256_mul_ps(y, r), c(p));
        }
        let p = _mm256_add_ps(_mm256_mul_ps(y, _mm256_mul_ps(r, r)), r);
        let p = _mm256_add_ps(p, c(1.0));
        let bits =
            _mm256_cvttps_epi32(_mm256_mul_ps(_mm256_add_ps(n, c(127.0)), c(EXPONENT_SHIFT)));
        let e = _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
        _mm256_div_ps(c(1.0), _mm256_add_ps(c(1.0), e))
    }
}

// ---------------------------------------------------------------------------
// Band lanes
// ---------------------------------------------------------------------------

/// The tier's [`BandLanes`] for the band kernels. The native lanes are
/// private to this module and reached only through the pointers built here,
/// for a mode that was detected. Both native tiers prefetch [`ROWS_AHEAD`]
/// rows ahead and fold the weight gradient 8 slots at a time on `__m256`
/// lanes: on AVX-512 hosts a 16-slot fold on `__m512` measured slower,
/// since every 512-bit shuffle issues on one port while 256-bit ones share
/// two (EXPERIMENTS.md "Band kernels on SIMD lanes"). The portable tier
/// runs its `W`-lane row update and the scalar weight gradient.
fn band_lanes(mode: Mode) -> BandLanes {
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx512 => BandLanes {
            // SAFETY: Mode::Avx512 is only constructed after
            // `is_x86_feature_detected!` found avx512f and avx.
            row_update: |w, x_row, out_row| unsafe { row_update_avx512(w, x_row, out_row) },
            // SAFETY: as above.
            row_mul_add: |w_row, x_row, out_row| unsafe {
                row_mul_add_avx512(w_row, x_row, out_row)
            },
            // SAFETY: as above.
            weight_grads: |slots, x, d_out, base, dim, out| unsafe {
                weight_grads_avx(slots, x, d_out, base, dim, out)
            },
        },
        #[cfg(target_arch = "x86_64")]
        Mode::Avx => BandLanes {
            // SAFETY: Mode::Avx is only constructed after
            // `is_x86_feature_detected!("avx")` returned true.
            row_update: |w, x_row, out_row| unsafe { row_update_avx(w, x_row, out_row) },
            // SAFETY: as above.
            row_mul_add: |w_row, x_row, out_row| unsafe { row_mul_add_avx(w_row, x_row, out_row) },
            // SAFETY: as above.
            weight_grads: |slots, x, d_out, base, dim, out| unsafe {
                weight_grads_avx(slots, x, d_out, base, dim, out)
            },
        },
        Mode::Portable => BandLanes {
            row_update: wide::row_update,
            row_mul_add: wide::row_mul_add,
            ..BandLanes::SCALAR
        },
    }
}

/// `out_row += w · x_row` on 16 lanes across features — per element one
/// `vmulps` then one `vaddps`, the scalar `out + w·x` — and a scalar tail.
/// The rows [`ROWS_AHEAD`] rows on are prefetched first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn row_update_avx512(w: f32, x_row: &[f32], out_row: &mut [f32]) {
    let x_row = &x_row[..out_row.len()];
    prefetch_rows_ahead(x_row, out_row);
    let vw = _mm512_set1_ps(w);
    let (xp, op) = (x_row.as_ptr(), out_row.as_mut_ptr());
    let mut d = 0;
    while d + 16 <= out_row.len() {
        // SAFETY: `d + 16` is within `out_row`, and `x_row` was just cut to
        // the same length; AVX-512F per the caller's detected mode.
        unsafe {
            let v = _mm512_mul_ps(vw, _mm512_loadu_ps(xp.add(d)));
            _mm512_storeu_ps(op.add(d), _mm512_add_ps(_mm512_loadu_ps(op.add(d)), v));
        }
        d += 16;
    }
    for (o, &v) in out_row[d..].iter_mut().zip(&x_row[d..]) {
        *o += w * v;
    }
}

/// [`row_update_avx512`] on 8 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn row_update_avx(w: f32, x_row: &[f32], out_row: &mut [f32]) {
    let x_row = &x_row[..out_row.len()];
    prefetch_rows_ahead(x_row, out_row);
    let vw = _mm256_set1_ps(w);
    let (xp, op) = (x_row.as_ptr(), out_row.as_mut_ptr());
    let mut d = 0;
    while d + 8 <= out_row.len() {
        // SAFETY: `d + 8` is within `out_row`, and `x_row` was just cut to
        // the same length; AVX per the caller's detected mode.
        unsafe {
            let v = _mm256_mul_ps(vw, _mm256_loadu_ps(xp.add(d)));
            _mm256_storeu_ps(op.add(d), _mm256_add_ps(_mm256_loadu_ps(op.add(d)), v));
        }
        d += 8;
    }
    for (o, &v) in out_row[d..].iter_mut().zip(&x_row[d..]) {
        *o += w * v;
    }
}

/// `out_row += w_row ⊙ x_row` on 16 lanes across features — per element
/// one `vmulps` then one `vaddps`, the scalar `out + w·x` — and a scalar
/// tail. The rows [`ROWS_AHEAD`] rows on are prefetched first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn row_mul_add_avx512(w_row: &[f32], x_row: &[f32], out_row: &mut [f32]) {
    let (w_row, x_row) = (&w_row[..out_row.len()], &x_row[..out_row.len()]);
    prefetch_rows_ahead(x_row, out_row);
    let (wp, xp, op) = (w_row.as_ptr(), x_row.as_ptr(), out_row.as_mut_ptr());
    let mut d = 0;
    while d + 16 <= out_row.len() {
        // SAFETY: `d + 16` is within `out_row`, and `w_row` and `x_row` were
        // just cut to the same length; AVX-512F per the caller's detected
        // mode.
        unsafe {
            let v = _mm512_mul_ps(_mm512_loadu_ps(wp.add(d)), _mm512_loadu_ps(xp.add(d)));
            _mm512_storeu_ps(op.add(d), _mm512_add_ps(_mm512_loadu_ps(op.add(d)), v));
        }
        d += 16;
    }
    let tail = out_row[d..].iter_mut().zip(&w_row[d..]);
    for ((o, &w), &v) in tail.zip(&x_row[d..]) {
        *o += w * v;
    }
}

/// [`row_mul_add_avx512`] on 8 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn row_mul_add_avx(w_row: &[f32], x_row: &[f32], out_row: &mut [f32]) {
    let (w_row, x_row) = (&w_row[..out_row.len()], &x_row[..out_row.len()]);
    prefetch_rows_ahead(x_row, out_row);
    let (wp, xp, op) = (w_row.as_ptr(), x_row.as_ptr(), out_row.as_mut_ptr());
    let mut d = 0;
    while d + 8 <= out_row.len() {
        // SAFETY: `d + 8` is within `out_row`, and `w_row` and `x_row` were
        // just cut to the same length; AVX per the caller's detected mode.
        unsafe {
            let v = _mm256_mul_ps(_mm256_loadu_ps(wp.add(d)), _mm256_loadu_ps(xp.add(d)));
            _mm256_storeu_ps(op.add(d), _mm256_add_ps(_mm256_loadu_ps(op.add(d)), v));
        }
        d += 8;
    }
    let tail = out_row[d..].iter_mut().zip(&w_row[d..]);
    for ((o, &w), &v) in tail.zip(&x_row[d..]) {
        *o += w * v;
    }
}

/// How many rows past the ones they touch the native band lanes prefetch.
/// The walks and the weight gradient all move through their
/// slabs in ascending rows, so the rows just ahead are the ones about to be
/// read; the hardware prefetcher alone left the band kernels waiting on
/// memory (EXPERIMENTS.md "Band kernels on SIMD lanes").
#[cfg(target_arch = "x86_64")]
const ROWS_AHEAD: usize = 16;

/// Prefetches the row [`ROWS_AHEAD`] rows past `x_row` and the one as far
/// past `out_row`, each as long as `out_row`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch_rows_ahead(x_row: &[f32], out_row: &[f32]) {
    let n = out_row.len();
    prefetch([x_row, out_row], ROWS_AHEAD * n..(ROWS_AHEAD + 1) * n);
}

/// Prefetches the cache lines that hold floats `span` of each of `bufs`,
/// counted from its start, alternating between the buffers line by line.
/// `span` may run past the end of a buffer: a prefetch loads nothing
/// architecturally and cannot fault, so that hint is just wasted.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch<const N: usize>(bufs: [&[f32]; N], span: std::ops::Range<usize>) {
    for at in span.step_by(16) {
        for buf in bufs {
            let line = buf.as_ptr().wrapping_add(at).cast();
            // SAFETY: a prefetch cannot fault, so `line` need not lie in
            // `buf` (it is formed with wrapping arithmetic). SSE is part of
            // every x86-64 target.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
        }
    }
}

/// The weight gradient 8 slots at a time, one slot per lane: each group's
/// full 8-feature blocks run through [`fold_avx`], the features past the
/// last full block continue each lane's fold in scalar code — still
/// `acc + d_lo·x_hi` then `acc + d_hi·x_lo` per feature — and fewer than 8
/// slots left over take the scalar loop. Every slot's value therefore has
/// the terms, order and roundings of the scalar [`BandLanes::weight_grads`].
/// Before a group folds, the rows up to [`ROWS_AHEAD`] past its last slot
/// are prefetched.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn weight_grads_avx(
    slots: &[BandSlot],
    x: &[f32],
    d_out: &[f32],
    base: usize,
    dim: usize,
    out: &mut [f32],
) {
    let (mut groups, mut outs) = (slots.chunks_exact(8), out.chunks_exact_mut(8));
    let mut offsets = [[0usize; 2]; 8];
    let mut fetched = 0;
    for (group, vals) in (&mut groups).zip(&mut outs) {
        let end = (group[7].hi + 1 + ROWS_AHEAD - base) * dim;
        prefetch([x, d_out], fetched.max((group[0].lo - base) * dim)..end);
        fetched = fetched.max(end);
        for (o, s) in offsets.iter_mut().zip(group) {
            *o = [(s.lo - base) * dim, (s.hi - base) * dim];
        }
        let mut acc = fold_avx(x, d_out, dim / 8, &offsets);
        for d in dim / 8 * 8..dim {
            for (a, &[lo, hi]) in acc.iter_mut().zip(&offsets) {
                *a += d_out[lo + d] * x[hi + d];
                *a += d_out[hi + d] * x[lo + d];
            }
        }
        vals.copy_from_slice(&acc);
    }
    let (rest, rest_out) = (groups.remainder(), outs.into_remainder());
    (BandLanes::SCALAR.weight_grads)(rest, x, d_out, base, dim, rest_out);
}

/// The transposed fold of 8 slots, whose `lo` and `hi` rows start at
/// `offsets[j]` in both slabs, over their first `blocks` 8-feature blocks.
/// Per block, row `j` of `p` holds slot `j`'s products `d_lo·x_hi` across
/// the block's features and `q` its `d_hi·x_lo`; transposed, vector `d`
/// holds feature `d` of every slot, lane `j` slot `j`, and the accumulator
/// adds `p[0], q[0], p[1], q[1], …` from `+0.0` — each lane the scalar fold
/// of its slot. No FMA, no horizontal sum.
///
/// No closure runs here: a closure inherits its function's target features
/// and then cannot be inlined into the `std` helper that calls it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn fold_avx(x: &[f32], d_out: &[f32], blocks: usize, offsets: &[[usize; 2]; 8]) -> [f32; 8] {
    let len = 8 * blocks;
    let slab = x.len().min(d_out.len());
    for &[lo, hi] in offsets {
        assert!(lo.max(hi) + len <= slab, "slot row outside the slabs");
    }
    let (xp, dp) = (x.as_ptr(), d_out.as_ptr());
    let mut acc = _mm256_setzero_ps();
    for d0 in (0..len).step_by(8) {
        let (mut p, mut q) = ([_mm256_setzero_ps(); 8], [_mm256_setzero_ps(); 8]);
        for (j, &[lo, hi]) in offsets.iter().enumerate() {
            // SAFETY: `lo + d0 + 8` and `hi + d0 + 8` are at most
            // `max(lo, hi) + len`, which the assert above holds within both
            // slabs; AVX per the caller's detected mode.
            unsafe {
                let (d_lo, x_hi) = (dp.add(lo + d0), xp.add(hi + d0));
                let (d_hi, x_lo) = (dp.add(hi + d0), xp.add(lo + d0));
                p[j] = _mm256_mul_ps(_mm256_loadu_ps(d_lo), _mm256_loadu_ps(x_hi));
                q[j] = _mm256_mul_ps(_mm256_loadu_ps(d_hi), _mm256_loadu_ps(x_lo));
            }
        }
        let (p, q) = (transpose8(p), transpose8(q));
        for (&pd, &qd) in p.iter().zip(&q) {
            acc = _mm256_add_ps(_mm256_add_ps(acc, pd), qd);
        }
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` holds 8 floats; AVX as above.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    lanes
}

/// The 8 × 8 transpose of `r` (row `i` in vector `i`) in registers: 32-bit
/// unpacks and 64-bit shuffles of row pairs leave, in each 128-bit lane
/// `L`, rows `4g..4g + 4` of column `4L + k` in vector `4g + k`; one 128-bit
/// permute per column joins its two lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let mut t = [_mm256_setzero_ps(); 8];
    for i in (0..8).step_by(2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    let mut s = [_mm256_setzero_ps(); 8];
    for g in (0..8).step_by(4) {
        let [a0, a1, b0, b1] = [t[g], t[g + 1], t[g + 2], t[g + 3]];
        s[g] = _mm256_shuffle_ps::<0x44>(a0, b0);
        s[g + 1] = _mm256_shuffle_ps::<0xee>(a0, b0);
        s[g + 2] = _mm256_shuffle_ps::<0x44>(a1, b1);
        s[g + 3] = _mm256_shuffle_ps::<0xee>(a1, b1);
    }
    let mut c = [_mm256_setzero_ps(); 8];
    for k in 0..4 {
        c[k] = _mm256_permute2f128_ps::<0x20>(s[k], s[4 + k]);
        c[4 + k] = _mm256_permute2f128_ps::<0x31>(s[k], s[4 + k]);
    }
    c
}

// ---------------------------------------------------------------------------
// Layer norm lanes
// ---------------------------------------------------------------------------

/// Layer norm of the residual sum `h + x` on 8 lanes, both native tiers:
/// per group of 8 rows, `x` becomes `h + x` (one `vaddps` per element, `h`
/// first as in the scalar add), [`ln_stats_avx`] folds the group's
/// statistics one row per lane and [`ln_row_avx`] writes each output row.
/// Rows past the last full group take the scalar loops of [`kernels`]. A
/// 16-row fold on `__m512` (two transposes joined per column) measured
/// 5–25 % slower on an AVX-512 host, as the band weight gradient's did
/// (EXPERIMENTS.md "A training step keeps only what its backward reads").
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
fn layer_norm_residual_avx(
    h: &[f32],
    x: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    cols: usize,
    eps: f32,
    out: &mut [f32],
) {
    assert!(
        h.len() == x.len() && out.len() == x.len(),
        "h, x and out must match"
    );
    assert!(
        gamma.len() == cols && beta.len() == cols,
        "gamma and beta must be 1 x cols"
    );
    if cols == 0 {
        return;
    }
    let block = 8 * cols;
    let full = x.len() / block * block;
    let groups = h.chunks_exact(block).zip(x.chunks_exact_mut(block));
    for ((hs, xs), os) in groups.zip(out.chunks_exact_mut(block)) {
        let (hp, xp) = (hs.as_ptr(), xs.as_mut_ptr());
        // `block` is a multiple of 8: no element is left over.
        for i in (0..block).step_by(8) {
            // SAFETY: `i + 8 <= block`, the length of both `hs` and `xs`;
            // AVX per the caller's detected mode.
            unsafe {
                let sum = _mm256_add_ps(_mm256_loadu_ps(hp.add(i)), _mm256_loadu_ps(xp.add(i)));
                _mm256_storeu_ps(xp.add(i), sum);
            }
        }
        let (mean, inv) = ln_stats_avx(xs, cols, eps);
        for (r, (row, o)) in xs
            .chunks_exact(cols)
            .zip(os.chunks_exact_mut(cols))
            .enumerate()
        {
            ln_row_avx(row, gamma, beta, mean[r], inv[r], o);
        }
    }
    let rest = h[full..]
        .chunks_exact(cols)
        .zip(x[full..].chunks_exact_mut(cols));
    for ((hr, row), o) in rest.zip(out[full..].chunks_exact_mut(cols)) {
        // `h + x`, the operands in the order of the add this replaces.
        #[allow(clippy::assign_op_pattern)]
        for (s, &a) in row.iter_mut().zip(hr) {
            *s = a + *s;
        }
        let (mean, inv) = kernels::layer_norm_stats(row, eps);
        kernels::layer_norm_row(row, gamma, beta, mean, inv, o);
    }
}

/// Layer norm's backward on 8 lanes, both native tiers: per group of 8
/// rows, the statistics ([`ln_stats_avx`]) and the two gradient means
/// ([`ln_grad_means_avx`]) one row per lane, then [`ln_grad_row_avx`] row by
/// row in ascending order, so `dgamma` and `dbeta` fold the rows as the
/// scalar loop does. Rows past the last full group take the scalar loops
/// of [`kernels`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
fn layer_norm_backward_avx(
    x: &[f32],
    g: &mut [f32],
    gamma: &[f32],
    cols: usize,
    eps: f32,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    assert_eq!(g.len(), x.len(), "g must match x");
    assert!(
        gamma.len() == cols && dgamma.len() == cols && dbeta.len() == cols,
        "gamma and its gradients must be 1 x cols"
    );
    if cols == 0 {
        return;
    }
    let block = 8 * cols;
    let full = x.len() / block * block;
    for (xs, gs) in x.chunks_exact(block).zip(g.chunks_exact_mut(block)) {
        let (mean, inv) = ln_stats_avx(xs, cols, eps);
        let (mdx, mdxh) = ln_grad_means_avx(xs, gs, gamma, cols, mean, inv);
        let rows = xs.chunks_exact(cols).zip(gs.chunks_exact_mut(cols));
        for (r, (row, g_row)) in rows.enumerate() {
            let means = (mdx[r], mdxh[r]);
            ln_grad_row_avx(row, g_row, gamma, mean[r], inv[r], means, dgamma, dbeta);
        }
    }
    let rest = x[full..]
        .chunks_exact(cols)
        .zip(g[full..].chunks_exact_mut(cols));
    for (row, g_row) in rest {
        let (mean, inv) = kernels::layer_norm_stats(row, eps);
        let means = kernels::layer_norm_grad_means(row, g_row, gamma, mean, inv);
        kernels::layer_norm_grad_row(row, g_row, gamma, mean, inv, means, dgamma, dbeta);
    }
}

/// Rows `0..8` of the `cols`-wide rows in `x`, 8 floats each from column
/// `j0` on: vector `r` holds row `r`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn rows8(x: &[f32], cols: usize, j0: usize) -> [__m256; 8] {
    assert!(
        j0 + 8 <= cols && x.len() >= 8 * cols,
        "block outside the rows"
    );
    let mut rows = [_mm256_setzero_ps(); 8];
    for (r, v) in rows.iter_mut().enumerate() {
        // SAFETY: `r·cols + j0 + 8 <= 7·cols + cols`, within `x` by the
        // assert above; AVX per the caller's detected mode.
        *v = unsafe { _mm256_loadu_ps(x.as_ptr().add(r * cols + j0)) };
    }
    rows
}

/// [`rows8`] transposed: vector `c` holds column `j0 + c` of the 8 rows,
/// lane `r` row `r`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn columns8(x: &[f32], cols: usize, j0: usize) -> [__m256; 8] {
    transpose8(rows8(x, cols, j0))
}

/// The 8 lanes of `v`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn lanes8(v: __m256) -> [f32; 8] {
    let mut out = [0.0f32; 8];
    // SAFETY: `out` holds 8 floats; AVX per the caller's detected mode.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) };
    out
}

/// [`kernels::layer_norm_stats`] of the 8 `cols`-wide rows in `x`, one row
/// per lane: each lane adds its row's columns in ascending order from the
/// `Sum` identity — the full 8-column blocks transposed ([`columns8`]), the
/// columns past them in scalar code — and every step is the scalar loop's
/// one `add`, `sub`, `mul`, `div` or `sqrt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn ln_stats_avx(x: &[f32], cols: usize, eps: f32) -> ([f32; 8], [f32; 8]) {
    let full = cols / 8 * 8;
    let cn = _mm256_set1_ps(cols as f32);
    let identity = _mm256_set1_ps(std::iter::empty::<f32>().sum());
    let mut acc = identity;
    for j0 in (0..full).step_by(8) {
        for c in columns8(x, cols, j0) {
            acc = _mm256_add_ps(acc, c);
        }
    }
    let mut sums = lanes8(acc);
    for (s, row) in sums.iter_mut().zip(x.chunks_exact(cols)) {
        for &v in &row[full..] {
            *s += v;
        }
    }
    let mean = lanes8(_mm256_div_ps(load8(&sums), cn));
    let mean_v = load8(&mean);
    let mut acc = identity;
    for j0 in (0..full).step_by(8) {
        for c in columns8(x, cols, j0) {
            let d = _mm256_sub_ps(c, mean_v);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
    }
    let mut squares = lanes8(acc);
    for ((s, row), &m) in squares.iter_mut().zip(x.chunks_exact(cols)).zip(&mean) {
        for &v in &row[full..] {
            *s += (v - m).powi(2);
        }
    }
    let var = _mm256_div_ps(load8(&squares), cn);
    let root = _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(eps)));
    (mean, lanes8(_mm256_div_ps(_mm256_set1_ps(1.0), root)))
}

/// [`kernels::layer_norm_grad_means`] of the 8 rows in `x` and `g`, one row
/// per lane, folded as [`ln_stats_avx`] folds: `dxhat = g · gamma` formed
/// on rows and transposed, `xhat` formed on the transposed columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn ln_grad_means_avx(
    x: &[f32],
    g: &[f32],
    gamma: &[f32],
    cols: usize,
    mean: [f32; 8],
    inv: [f32; 8],
) -> ([f32; 8], [f32; 8]) {
    let full = cols / 8 * 8;
    let (mean_v, inv_v) = (load8(&mean), load8(&inv));
    let identity = _mm256_set1_ps(std::iter::empty::<f32>().sum());
    let (mut acc_d, mut acc_dh) = (identity, identity);
    for j0 in (0..full).step_by(8) {
        let k = load8(&gamma[j0..j0 + 8]);
        let mut d = rows8(g, cols, j0);
        for v in d.iter_mut() {
            *v = _mm256_mul_ps(*v, k);
        }
        let d = transpose8(d);
        let xs = columns8(x, cols, j0);
        for (&dc, &xc) in d.iter().zip(&xs) {
            let h = _mm256_mul_ps(_mm256_sub_ps(xc, mean_v), inv_v);
            acc_d = _mm256_add_ps(acc_d, dc);
            acc_dh = _mm256_add_ps(acc_dh, _mm256_mul_ps(dc, h));
        }
    }
    let (mut sd, mut sdh) = (lanes8(acc_d), lanes8(acc_dh));
    let rows = x.chunks_exact(cols).zip(g.chunks_exact(cols));
    for (r, (row, g_row)) in rows.enumerate() {
        for ((&v, &gv), &k) in row[full..].iter().zip(&g_row[full..]).zip(&gamma[full..]) {
            let d = gv * k;
            sd[r] += d;
            sdh[r] += d * ((v - mean[r]) * inv[r]);
        }
    }
    let cn = _mm256_set1_ps(cols as f32);
    (
        lanes8(_mm256_div_ps(load8(&sd), cn)),
        lanes8(_mm256_div_ps(load8(&sdh), cn)),
    )
}

/// The first 8 floats of `v` as a vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn load8(v: &[f32]) -> __m256 {
    let v = &v[..8];
    // SAFETY: `v` was just cut to 8 floats; AVX per the caller's detected
    // mode.
    unsafe { _mm256_loadu_ps(v.as_ptr()) }
}

/// [`kernels::layer_norm_row`] on 8 lanes across columns, a scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn ln_row_avx(row: &[f32], gamma: &[f32], beta: &[f32], mean: f32, inv: f32, out: &mut [f32]) {
    let n = out.len();
    let (row, gamma, beta) = (&row[..n], &gamma[..n], &beta[..n]);
    let (mean_v, inv_v) = (_mm256_set1_ps(mean), _mm256_set1_ps(inv));
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n`, and `row`, `gamma`, `beta` were just cut to
        // `n` floats; AVX per the caller's detected mode.
        unsafe {
            let xhat = _mm256_mul_ps(
                _mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(j)), mean_v),
                inv_v,
            );
            let scaled = _mm256_mul_ps(_mm256_loadu_ps(gamma.as_ptr().add(j)), xhat);
            let o = _mm256_add_ps(scaled, _mm256_loadu_ps(beta.as_ptr().add(j)));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), o);
        }
        j += 8;
    }
    kernels::layer_norm_row(&row[j..], &gamma[j..], &beta[j..], mean, inv, &mut out[j..]);
}

/// [`kernels::layer_norm_grad_row`] on 8 lanes across columns, a scalar
/// tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
fn ln_grad_row_avx(
    row: &[f32],
    g_row: &mut [f32],
    gamma: &[f32],
    mean: f32,
    inv: f32,
    (mdx, mdxh): (f32, f32),
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let n = g_row.len();
    let (row, gamma) = (&row[..n], &gamma[..n]);
    let (dgamma, dbeta) = (&mut dgamma[..n], &mut dbeta[..n]);
    let s = _mm256_set1_ps;
    let (mean_v, inv_v, mdx_v, mdxh_v) = (s(mean), s(inv), s(mdx), s(mdxh));
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n`, and every slice here was just cut to `n`
        // floats; AVX per the caller's detected mode.
        unsafe {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let gp = g_row.as_mut_ptr().add(j);
            let gv = _mm256_loadu_ps(gp);
            let h = _mm256_mul_ps(_mm256_sub_ps(v, mean_v), inv_v);
            let d = _mm256_mul_ps(gv, _mm256_loadu_ps(gamma.as_ptr().add(j)));
            let dg = dgamma.as_mut_ptr().add(j);
            _mm256_storeu_ps(dg, _mm256_add_ps(_mm256_loadu_ps(dg), _mm256_mul_ps(gv, h)));
            let db = dbeta.as_mut_ptr().add(j);
            _mm256_storeu_ps(db, _mm256_add_ps(_mm256_loadu_ps(db), gv));
            let centred = _mm256_sub_ps(_mm256_sub_ps(d, mdx_v), _mm256_mul_ps(h, mdxh_v));
            _mm256_storeu_ps(gp, _mm256_mul_ps(inv_v, centred));
        }
        j += 8;
    }
    kernels::layer_norm_grad_row(
        &row[j..],
        &mut g_row[j..],
        &gamma[j..],
        mean,
        inv,
        (mdx, mdxh),
        &mut dgamma[j..],
        &mut dbeta[j..],
    );
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    // The same shape checks, serial cutoff, and `MC`-aligned row-range
    // split as `kernels::matmul_par`, with `gemm_rows` and the tier's tile
    // per range. `b` is packed once here, before the thread fan-out, and
    // the read-only strips are shared by all workers; a `b` with a
    // non-finite value goes to the reference loops instead.
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
        assert_eq!(a.data().len(), n * k, "a must be {n}x{k}");
        assert_eq!(b.data().len(), k * m, "b must be {k}x{m}");
        assert_eq!(out.len(), n * m, "out must be {n}x{m}");
        let bias = match epilogue {
            Epilogue::None => None,
            Epilogue::Bias(bias) => Some((bias, false)),
            Epilogue::BiasRelu(bias) => Some((bias, true)),
        };
        if let Some((bias, _)) = bias {
            assert_eq!(bias.len(), m, "bias must be 1x{m}");
        }
        let Some(packed) = pack_strips(b, k, m) else {
            return ReferenceBackend.gemm(a, b, n, k, m, epilogue, par, out);
        };
        let (a, packed) = (Strided::new(a, n, k), &packed);
        let rows = |lo: usize, hi: usize, part: &mut [f32]| match self.mode {
            #[cfg(target_arch = "x86_64")]
            Mode::Avx512 => gemm_rows(
                a,
                packed,
                k,
                m,
                lo,
                hi,
                bias,
                part,
                // SAFETY: Mode::Avx512 is only constructed after
                // `is_x86_feature_detected!` found both avx512f and avx.
                |a, ks, s, c, ldc| unsafe { avx512::tile(a, ks, s, c, ldc) },
                // SAFETY: as above; AVX-512 hosts run the AVX epilogue.
                |row, bias, relu| unsafe { avx::bias_relu_row(row, bias, relu) },
            ),
            #[cfg(target_arch = "x86_64")]
            Mode::Avx => gemm_rows(
                a,
                packed,
                k,
                m,
                lo,
                hi,
                bias,
                part,
                // SAFETY: Mode::Avx is only constructed after
                // `is_x86_feature_detected!` found avx and fma.
                |a, ks, s, c, ldc| unsafe { avx::tile(a, ks, s, c, ldc) },
                // SAFETY: as above.
                |row, bias, relu| unsafe { avx::bias_relu_row(row, bias, relu) },
            ),
            Mode::Portable => wide::gemm_rows(a, packed, k, m, lo, hi, bias, part),
        };
        let threads = par.effective_threads().min(n.max(1));
        if threads <= 1 || n * k * m < kernels::PAR_MATMUL_MIN_FLOPS {
            return rows(0, n, out);
        }
        // MC-aligned boundaries keep whole row blocks on one worker; each
        // worker streams the shared packed strips and writes its rows in
        // place.
        let ranges = partition::row_ranges(n, threads, MC);
        partition::par_rows(out, n, m, &ranges, |lo, hi, part| rows(lo, hi, part));
    }

    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: both native modes imply AVX was detected at construction.
            Mode::Avx | Mode::Avx512 => unsafe { avx::add(a, b, out) },
            Mode::Portable => wide::zip(a, b, out, |x, y| x + y),
        }
    }

    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: both native modes imply AVX was detected at construction.
            Mode::Avx | Mode::Avx512 => unsafe { avx::mul(a, b, out) },
            Mode::Portable => wide::zip(a, b, out, |x, y| x * y),
        }
    }

    fn scale(&self, a: &[f32], k: f32, out: &mut [f32]) {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: both native modes imply AVX was detected at construction.
            Mode::Avx | Mode::Avx512 => unsafe { avx::scale(a, k, out) },
            Mode::Portable => wide::map(a, out, |x| x * k),
        }
    }

    fn unary(&self, op: Unary, x: &[f32], out: &mut [f32]) {
        match (op, self.mode) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: both native modes imply AVX was detected at construction.
            (Unary::Relu, Mode::Avx | Mode::Avx512) => unsafe { avx::relu(x, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            (Unary::LeakyRelu(s), Mode::Avx | Mode::Avx512) => unsafe {
                avx::leaky_relu(x, s, out)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx is only constructed after
            // `is_x86_feature_detected!("avx")` returned true.
            (Unary::Sigmoid, Mode::Avx | Mode::Avx512) => unsafe { avx::sigmoid(x, out) },
            (Unary::Relu, Mode::Portable) => wide::map(x, out, |v| v.max(0.0)),
            (Unary::LeakyRelu(s), Mode::Portable) => {
                wide::map(x, out, |v| if v > 0.0 { v } else { s * v })
            }
            (Unary::Sigmoid, Mode::Portable) => wide::map(x, out, kernels::sigmoid),
        }
    }

    // Layer norm's residual forward and its backward run one row per lane
    // on the native tiers, 8 rows at a time; every other pass, and the
    // portable tier, runs the scalar loops.
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
        match (kind, pass, self.mode) {
            #[cfg(target_arch = "x86_64")]
            (NormKind::Layer, NormPass::Residual { h, x, out }, Mode::Avx | Mode::Avx512) => {
                assert_eq!(x.len(), rows * cols, "x must be {rows}x{cols}");
                // SAFETY: both native modes imply AVX was detected at
                // construction.
                unsafe { layer_norm_residual_avx(h, x, gamma, beta, cols, eps, out) }
            }
            #[cfg(target_arch = "x86_64")]
            (
                NormKind::Layer,
                NormPass::Backward {
                    x,
                    g,
                    dgamma,
                    dbeta,
                },
                Mode::Avx | Mode::Avx512,
            ) => {
                assert_eq!(x.len(), rows * cols, "x must be {rows}x{cols}");
                // SAFETY: as above.
                unsafe { layer_norm_backward_avx(x, g, gamma, cols, eps, dgamma, dbeta) }
            }
            (kind, pass, _) => kernels::norm(kind, pass, gamma, beta, rows, cols, eps),
        }
    }

    fn banded_aggregate(
        &self,
        band: &BandMask,
        x: &[f32],
        dim: usize,
        weights: &[f32],
        par: &Parallelism,
        out: &mut [f32],
    ) {
        let lanes = band_lanes(self.mode);
        kernels::banded_aggregate(lanes, band, x, dim, weights, par, out);
    }

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
        let lanes = band_lanes(self.mode);
        kernels::banded_weight_grad(lanes, band, x, d_out, dim, par, out);
    }

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
        let lanes = band_lanes(self.mode);
        kernels::band_attend(lanes, route, x, attn, heads, dim, transposed, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceBackend;

    fn sample(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic values with exact zeros (the terms the reference
        // skips) and a negative zero sprinkled in (max/blend edge cases).
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(17);
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let v = ((state >> 8) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0;
                if v.abs() < 0.05 {
                    if i % 2 == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                } else {
                    v
                }
            })
            .collect()
    }

    fn label(backend: &SimdBackend) -> String {
        format!("{}-{}", backend.tier(), backend.lane_width())
    }

    /// The row-major `cols × rows` transpose of a row-major `rows × cols`
    /// matrix.
    fn transpose(v: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols * rows)
            .map(|i| v[(i % rows) * cols + i / rows])
            .collect()
    }

    #[test]
    fn simd_matmul_bit_identical_to_reference() {
        use Operand::{RowMajor, Transposed};
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (5, 0, 7),
            (7, 13, 5),
            (33, 64, 17),
            (40, 70, 65),
            (53, 9, 96),
        ] {
            let a = sample(n * k, (n * 31 + k) as u32);
            let b = sample(k * m, (k * 17 + m) as u32);
            let (at, bt) = (transpose(&a, n, k), transpose(&b, k, m));
            let mut want = vec![0.0f32; n * m];
            let par = Parallelism::with_threads(1);
            let (ra, rb) = (RowMajor(&a), RowMajor(&b));
            ReferenceBackend.gemm(ra, rb, n, k, m, Epilogue::None, &par, &mut want);
            for backend in SimdBackend::all_on_host() {
                for threads in [1usize, 2, 4] {
                    let par = Parallelism::pinned(threads);
                    for (oa, ob) in [(ra, rb), (Transposed(&at), Transposed(&bt))] {
                        // Whatever `out` held is overwritten, never read.
                        let mut got = vec![f32::NAN; n * m];
                        backend.gemm(oa, ob, n, k, m, Epilogue::None, &par, &mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{n}x{k}x{m} {} threads={threads} {oa:?}",
                            label(&backend)
                        );
                    }
                }
            }
        }
    }

    /// `a = [1, 1 + 2⁻¹²]` times `b = [−1, 1 + 2⁻¹²]`: the fused fold keeps
    /// the `2⁻²⁴` that rounding `(1 + 2⁻¹²)²` before the add would lose.
    /// `a = [−2⁻⁸⁰, 0]` times `b = [2⁻⁸⁰, 1]`: the fused term underflows to
    /// `−0.0`, which the reference keeps by skipping the zero `a` and the
    /// tiles turn into `+0.0` by adding it; in the other order every backend
    /// ends on `−0.0`. The closing `+ 0.0` makes all of them `+0.0`. Each
    /// runs as the 1 × 2 · 2 × 1 product and as every element of a 300 × 2 ·
    /// 2 × 260 one, large enough to fan out across four workers.
    #[test]
    fn gemm_fold_is_fused() {
        use Operand::{RowMajor, Transposed};
        let (e, tiny) = (1.0 + 2f32.powi(-12), 2f32.powi(-80));
        let fused = 2f32.powi(-11) + 2f32.powi(-24);
        assert_ne!(fused, e * e - 1.0, "the unfused fold rounds the product");
        let mut backends: Vec<(String, &dyn Backend)> =
            vec![("reference".into(), &ReferenceBackend)];
        let tiers = SimdBackend::all_on_host();
        backends.extend(tiers.iter().map(|t| (label(t), t as &dyn Backend)));
        for ([a0, a1], [b0, b1], want) in [
            ([1.0, e], [-1.0, e], fused),
            ([-tiny, 0.0], [tiny, 1.0], 0.0),
            ([0.0, -tiny], [1.0, tiny], 0.0),
        ] {
            for (n, m) in [(1usize, 1usize), (300, 260)] {
                let (a, at) = ([a0, a1].repeat(n), [vec![a0; n], vec![a1; n]].concat());
                let (b, bt) = ([vec![b0; m], vec![b1; m]].concat(), [b0, b1].repeat(m));
                for (name, backend) in &backends {
                    for threads in [1, 4] {
                        let par = Parallelism::pinned(threads);
                        for (oa, ob) in [
                            (RowMajor(&a), RowMajor(&b)),
                            (Transposed(&at), Transposed(&bt)),
                        ] {
                            let mut out = vec![f32::NAN; n * m];
                            backend.gemm(oa, ob, n, 2, m, Epilogue::None, &par, &mut out);
                            let wrong = out.iter().filter(|v| v.to_bits() != want.to_bits());
                            let case = format!("{name} {n}x2x{m} threads={threads} {oa:?}");
                            assert_eq!(wrong.count(), 0, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// Every tier's sigmoid has the bits of `kernels::sigmoid` on a dense
    /// sweep across both clamp edges and on the special values, and the
    /// scalar form is within 2 ulp of the f64 sigmoid over [−80, 88].
    #[test]
    fn sigmoid_lanes_match_scalar() {
        let step = 2f32.powi(-12);
        let mut x: Vec<f32> = (0..240 * 4096).map(|i| -120.0 + i as f32 * step).collect();
        let edges = [-kernels::EXP_LO, -kernels::EXP_HI];
        x.extend(edges.iter().flat_map(|&e| [e.next_down(), e, e.next_up()]));
        x.extend([
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_0001),
            f32::INFINITY,
        ]);
        x.extend([
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            1e-40,
            -1e-40,
        ]);
        let want: Vec<u32> = x.iter().map(|&v| kernels::sigmoid(v).to_bits()).collect();
        let mut got = vec![0.0f32; x.len()];
        ReferenceBackend.unary(Unary::Sigmoid, &x, &mut got);
        assert_eq!(bits(&got), want, "reference");
        for backend in SimdBackend::all_on_host() {
            // The special values sit at the end, so the two lengths run
            // them in full native vectors and in the scalar tail.
            for skip in [0, 3] {
                let mut got = vec![0.0f32; x.len() - skip];
                backend.unary(Unary::Sigmoid, &x[skip..], &mut got);
                assert_eq!(bits(&got), want[skip..], "{}", label(&backend));
            }
        }
        // ulp distance: how many floats lie between the result and the f64
        // sigmoid rounded to f32 (both positive, so the bit patterns count).
        let ulps = |v: f32| {
            let exact = (1.0 / (1.0 + (-f64::from(v)).exp())) as f32;
            kernels::sigmoid(v).to_bits().abs_diff(exact.to_bits())
        };
        let in_range = x.iter().filter(|v| (-80.0..=88.0).contains(*v));
        let worst = in_range.map(|&v| (ulps(v), v)).max_by_key(|w| w.0);
        assert!(
            worst.unwrap().0 <= 2,
            "ulps from the f64 sigmoid: {worst:?}"
        );
        for v in [f32::NAN, -f32::NAN] {
            assert!(kernels::sigmoid(v).is_nan(), "a NaN passes through");
        }
        assert_eq!(kernels::sigmoid(f32::INFINITY), 1.0);
        // Below −88 the clamp holds: one subnormal constant, sigmoid(−88),
        // where libm's `expf` overflowed and gave +0.0. The sweep above
        // carries these inputs through every tier.
        for v in [-88.0, -100.0, -200.0, f32::NEG_INFINITY] {
            assert_eq!(kernels::sigmoid(v).to_bits(), 0x0041_edc4, "sigmoid({v})");
        }
    }

    #[test]
    fn simd_epilogues_bit_identical_to_unfused() {
        let (n, k, m) = (35usize, 70usize, 33usize);
        let x = sample(n * k, 3);
        let w = sample(k * m, 4);
        let bias = sample(m, 5);
        let par = Parallelism::with_threads(1);
        let (ox, ow) = (Operand::RowMajor(&x), Operand::RowMajor(&w));
        for epilogue in [Epilogue::Bias(&bias), Epilogue::BiasRelu(&bias)] {
            let mut unfused = vec![0.0f32; n * m];
            kernels::matmul(ox, ow, n, k, m, &mut unfused);
            kernels::epilogue(epilogue, &mut unfused, m);
            for backend in SimdBackend::all_on_host() {
                let mut fused = vec![-0.0f32; n * m];
                backend.gemm(ox, ow, n, k, m, epilogue, &par, &mut fused);
                assert_eq!(bits(&fused), bits(&unfused), "{}", label(&backend));
            }
        }
    }

    #[test]
    fn elementwise_family_bit_identical_to_reference() {
        // 67 elements: 8 full 8-lane vectors plus a 3-element scalar tail.
        let a = sample(67, 11);
        let b = sample(67, 12);
        for backend in SimdBackend::all_on_host() {
            let tier = label(&backend);
            let mut want = vec![0.0f32; 67];
            let mut got = vec![0.0f32; 67];
            ReferenceBackend.add(&a, &b, &mut want);
            backend.add(&a, &b, &mut got);
            assert_eq!(bits(&got), bits(&want), "add {tier}");
            ReferenceBackend.mul(&a, &b, &mut want);
            backend.mul(&a, &b, &mut got);
            assert_eq!(bits(&got), bits(&want), "mul {tier}");
            ReferenceBackend.scale(&a, -1.75, &mut want);
            backend.scale(&a, -1.75, &mut got);
            assert_eq!(bits(&got), bits(&want), "scale {tier}");
        }
    }

    #[test]
    fn activations_bit_identical_to_reference() {
        let x = sample(67, 21);
        for backend in SimdBackend::all_on_host() {
            let tier = label(&backend);
            let mut want = vec![0.0f32; 67];
            let mut got = vec![0.0f32; 67];
            for op in [Unary::Relu, Unary::LeakyRelu(0.2), Unary::Sigmoid] {
                ReferenceBackend.unary(op, &x, &mut want);
                backend.unary(op, &x, &mut got);
                assert_eq!(bits(&got), bits(&want), "{op:?} {tier}");
            }
        }
    }

    #[test]
    fn lane_width_reporting() {
        let tiers = SimdBackend::all_on_host();
        let described: Vec<(&str, usize)> =
            tiers.iter().map(|t| (t.tier(), t.lane_width())).collect();
        let mut want = Vec::new();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                want.push(("avx512", 16));
            }
            want.push(("avx", 8));
        }
        want.push(("portable", 8));
        assert_eq!(described, want, "native tiers widest first, then portable");
        assert_eq!(SimdBackend::new().tier(), want[0].0);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
