//! Explicit-width SIMD kernels over a packed strip layout.
//!
//! [`SimdBackend`] is the workspace's vectorized hot path: the GEMM
//! micro-kernel, the elementwise family (`add`/`sub`/`mul`/`scale`,
//! `scale_rows`, `add_bias_rows`), the clamp-family activations, and the
//! fused bias-ReLU GEMM epilogue all run on explicit-width lane structs —
//! AVX `__m256` intrinsics where the CPU has them, a portable
//! const-generic scalar-lane fallback everywhere else. No new
//! dependencies: the AVX path is `std::arch` behind a runtime
//! `is_x86_feature_detected!` check, and every other architecture takes
//! the portable path.
//!
//! **Bit-identity** with [`ReferenceBackend`](crate::ReferenceBackend) is
//! preserved by construction:
//!
//! * The GEMM micro-kernel vectorizes over the `NR` *column* dimension of
//!   the packed `k × NR` strips ([`pack_strips`]), so every SIMD lane owns
//!   one output element and folds its `k` products
//!   in the same ascending-`k` scalar order as the reference loop. Lane-wise
//!   `mul` + `add` only — no FMA (Rust never contracts `a*b + c`), no
//!   horizontal reductions (a horizontal sum would reassociate the fold and
//!   change the bits).
//! * The reference kernel's `a == 0.0` zero-skip is a *scalar* test on the
//!   broadcast multiplier, so it fires identically for all lanes.
//! * Elementwise lanes are independent by definition; `vmaxps(x, 0)` and
//!   scalar `f32::max(x, 0.0)` agree on every input including `-0.0` and
//!   NaN (both return the second operand for NaN inputs).
//! * Transcendental activations (`sigmoid`, `tanh`) stay on the scalar
//!   libm loops — a vectorized `exp` approximation could not be
//!   bit-identical — so [`SimdBackend`] simply delegates those.
//!
//! The portable fallback mirrors the AVX loop structure with `[f32; W]`
//! lane structs (`W ∈ {4, 8, 16}`): same strip walk, same per-lane
//! arithmetic, so its bits match both the AVX path and the reference.
//! `backend_matmul --lanes` sweeps the widths.

use crate::kernels;
use crate::partition;
use crate::{Backend, Epilogue, Unary};
use mega_core::parallel::Parallelism;

/// Output rows per tile: one tile of rows shares each cache-resident strip
/// of packed `b`.
const MC: usize = 32;
/// Output columns held in registers at once (8 SSE / 4 AVX vectors).
const NR: usize = 32;

/// Packs `b` (`k × m`, row-major) into contiguous `k × NR` column strips,
/// zero-padded to `NR` wide — the layout the micro-kernels stream through.
/// Contiguous strips kill the power-of-two row stride that thrashes L1
/// sets, and each cache-resident strip is reused across `MC` output rows.
/// The copy is O(k·m) against O(n·k·m) multiply-adds that reuse it.
fn pack_strips(b: &[f32], k: usize, m: usize) -> Vec<f32> {
    let strips = m.div_ceil(NR);
    let mut packed = vec![0.0f32; strips * k * NR];
    for s in 0..strips {
        let jt = s * NR;
        let w = NR.min(m - jt);
        let slab = &mut packed[s * k * NR..(s + 1) * k * NR];
        for kk in 0..k {
            slab[kk * NR..kk * NR + w].copy_from_slice(&b[kk * m + jt..kk * m + jt + w]);
        }
    }
    packed
}

/// Which lane implementation a [`SimdBackend`] instance dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// 8-lane `__m256` intrinsics (x86-64 with AVX, detected at runtime).
    #[cfg(target_arch = "x86_64")]
    Avx,
    /// Portable `[f32; W]` scalar lanes; `W` must divide [`NR`].
    Portable(usize),
}

/// Explicit-width vector backend: AVX lanes when the host has them, the
/// portable scalar-lane structs otherwise. Bit-identical to
/// [`ReferenceBackend`](crate::ReferenceBackend) for every kernel (see the
/// module docs for why), faster wherever lanes beat scalars.
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
    /// Auto-detects the widest supported lane implementation.
    pub fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return SimdBackend { mode: Mode::Avx };
        }
        SimdBackend {
            mode: Mode::Portable(8),
        }
    }

    /// Forces the portable scalar-lane path at `width` lanes — the
    /// lane-width sweep in `backend_matmul` uses this to measure how the
    /// kernels scale with vector width. `width` must be 4, 8, or 16.
    pub fn with_portable_lanes(width: usize) -> Self {
        assert!(
            matches!(width, 4 | 8 | 16),
            "portable lane width must be 4, 8, or 16, got {width}"
        );
        SimdBackend {
            mode: Mode::Portable(width),
        }
    }

    /// The number of f32 lanes the active mode processes per vector op.
    pub fn lane_width(&self) -> usize {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            Mode::Avx => 8,
            Mode::Portable(w) => w,
        }
    }

    /// Whether the hardware-intrinsic path (rather than the portable
    /// scalar-lane fallback) is active.
    pub fn is_accelerated(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            self.mode == Mode::Avx
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Portable lane structs
// ---------------------------------------------------------------------------

/// Portable `W`-lane vector: scalar per-lane ops with the exact semantics of
/// the AVX path (and of the reference loops — each lane is one independent
/// scalar chain). The fixed-width arrays give LLVM the same unrolled shape
/// the intrinsics spell out explicitly.
mod wide {
    use super::{MC, NR};

    /// GEMM over rows `[lo, hi)` with `W`-lane accumulators: the
    /// caller-packed strip (shared read-only across workers, packed once
    /// per GEMM) is walked one `W`-wide column chunk at a time, each chunk
    /// folding its `k` products in ascending order — per output element
    /// this is exactly the reference fold.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_rows<const W: usize>(
        a: &[f32],
        packed: &[f32],
        k: usize,
        m: usize,
        lo: usize,
        hi: usize,
        bias_relu: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let strips = m.div_ceil(NR);
        let mut ib = lo;
        while ib < hi {
            let i_end = (ib + MC).min(hi);
            for s in 0..strips {
                let jt = s * NR;
                let w = NR.min(m - jt);
                let strip = &packed[s * k * NR..(s + 1) * k * NR];
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[(i - lo) * m..(i - lo + 1) * m];
                    let mut acc = [0.0f32; NR];
                    acc[..w].copy_from_slice(&out_row[jt..jt + w]);
                    micro_tile::<W>(a_row, strip, &mut acc);
                    out_row[jt..jt + w].copy_from_slice(&acc[..w]);
                }
            }
            if let Some(bias) = bias_relu {
                for i in ib..i_end {
                    let out_row = &mut out[(i - lo) * m..(i - lo + 1) * m];
                    bias_relu_row::<W>(out_row, bias);
                }
            }
            ib = i_end;
        }
    }

    /// The `W`-lane micro-kernel: each `W`-wide chunk of the `NR`
    /// accumulator folds ascending `k`, with the scalar zero-skip on the
    /// broadcast multiplier.
    #[inline]
    fn micro_tile<const W: usize>(a_row: &[f32], strip: &[f32], acc: &mut [f32; NR]) {
        let chunks = NR / W;
        for c in 0..chunks {
            let base = c * W;
            let mut v = [0.0f32; W];
            v.copy_from_slice(&acc[base..base + W]);
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b = &strip[kk * NR + base..kk * NR + base + W];
                for l in 0..W {
                    v[l] += av * b[l];
                }
            }
            acc[base..base + W].copy_from_slice(&v);
        }
    }

    /// Fused `out = max(out + bias, 0)` over one row.
    #[inline]
    pub fn bias_relu_row<const W: usize>(out_row: &mut [f32], bias: &[f32]) {
        let mut j = 0;
        while j + W <= out_row.len() {
            for l in 0..W {
                out_row[j + l] = (out_row[j + l] + bias[j + l]).max(0.0);
            }
            j += W;
        }
        while j < out_row.len() {
            out_row[j] = (out_row[j] + bias[j]).max(0.0);
            j += 1;
        }
    }

    /// `W`-lane binary elementwise loop with a scalar tail.
    #[inline]
    pub fn zip<const W: usize>(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
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

    /// `W`-lane unary elementwise loop with a scalar tail.
    #[inline]
    pub fn map<const W: usize>(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
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
// AVX lane structs (x86-64, runtime-detected)
// ---------------------------------------------------------------------------

/// 8-lane `__m256` kernels. Every function here carries
/// `#[target_feature(enable = "avx")]`; [`SimdBackend`] only reaches this
/// module after `is_x86_feature_detected!("avx")` succeeded, which makes
/// the `unsafe` call sites in the dispatcher sound.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{MC, NR};
    use std::arch::x86_64::*;

    /// GEMM over rows `[lo, hi)`: caller-packed strips (packed once per
    /// GEMM, shared read-only across workers), `MC`-row tiles, four
    /// `__m256` accumulators spanning the `NR`-column tile. Per lane this
    /// is `acc += av * b` in ascending `k` — `vmulps` + `vaddps`, never
    /// `vfmadd` (FMA's single rounding would change the bits).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    pub fn gemm_rows(
        a: &[f32],
        packed: &[f32],
        k: usize,
        m: usize,
        lo: usize,
        hi: usize,
        bias_relu: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let strips = m.div_ceil(NR);
        let mut ib = lo;
        while ib < hi {
            let i_end = (ib + MC).min(hi);
            for s in 0..strips {
                let jt = s * NR;
                let w = NR.min(m - jt);
                let strip = &packed[s * k * NR..(s + 1) * k * NR];
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[(i - lo) * m..(i - lo + 1) * m];
                    let mut acc = [0.0f32; NR];
                    acc[..w].copy_from_slice(&out_row[jt..jt + w]);
                    micro_tile(a_row, strip, &mut acc);
                    out_row[jt..jt + w].copy_from_slice(&acc[..w]);
                }
            }
            if let Some(bias) = bias_relu {
                for i in ib..i_end {
                    bias_relu_row(&mut out[(i - lo) * m..(i - lo + 1) * m], bias);
                }
            }
            ib = i_end;
        }
    }

    /// The AVX micro-kernel: the whole `NR = 32` accumulator tile lives in
    /// four `__m256` registers across the depth loop; the packed strip row
    /// is one contiguous 128-byte load sequence per `k` step.
    #[target_feature(enable = "avx")]
    fn micro_tile(a_row: &[f32], strip: &[f32], acc: &mut [f32; NR]) {
        // SAFETY: `acc` is exactly NR = 32 floats, so the four 8-lane
        // loads/stores at offsets 0/8/16/24 stay in bounds; `strip` is a
        // packed k×NR buffer, so `kk * NR + 24 + 8 <= strip.len()` for every
        // `kk < k` iterated here. AVX itself is guaranteed by this module's
        // `#[target_feature]` + runtime-detection contract.
        unsafe {
            let p = acc.as_mut_ptr();
            let mut v0 = _mm256_loadu_ps(p);
            let mut v1 = _mm256_loadu_ps(p.add(8));
            let mut v2 = _mm256_loadu_ps(p.add(16));
            let mut v3 = _mm256_loadu_ps(p.add(24));
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let s = strip.as_ptr().add(kk * NR);
                let vav = _mm256_set1_ps(av);
                v0 = _mm256_add_ps(v0, _mm256_mul_ps(vav, _mm256_loadu_ps(s)));
                v1 = _mm256_add_ps(v1, _mm256_mul_ps(vav, _mm256_loadu_ps(s.add(8))));
                v2 = _mm256_add_ps(v2, _mm256_mul_ps(vav, _mm256_loadu_ps(s.add(16))));
                v3 = _mm256_add_ps(v3, _mm256_mul_ps(vav, _mm256_loadu_ps(s.add(24))));
            }
            _mm256_storeu_ps(p, v0);
            _mm256_storeu_ps(p.add(8), v1);
            _mm256_storeu_ps(p.add(16), v2);
            _mm256_storeu_ps(p.add(24), v3);
        }
    }

    /// Fused `out = max(out + bias, 0)` over one row; `vmaxps(x, 0)`
    /// matches scalar `f32::max(x, 0.0)` on every input (both return the
    /// second operand for NaN).
    #[target_feature(enable = "avx")]
    pub fn bias_relu_row(out_row: &mut [f32], bias: &[f32]) {
        // SAFETY: the vector loop only touches `j..j + 8` while
        // `j + 8 <= out_row.len()`, and the caller passes `bias` of the
        // same row width (asserted in `gemm_simd`), so every 8-lane
        // load/store on both pointers is in bounds; the tail is safe
        // indexing. AVX is guaranteed by the module contract.
        unsafe {
            let zero = _mm256_setzero_ps();
            let n = out_row.len();
            let o = out_row.as_mut_ptr();
            let b = bias.as_ptr();
            let mut j = 0;
            while j + 8 <= n {
                let v = _mm256_add_ps(_mm256_loadu_ps(o.add(j)), _mm256_loadu_ps(b.add(j)));
                _mm256_storeu_ps(o.add(j), _mm256_max_ps(v, zero));
                j += 8;
            }
            while j < n {
                out_row[j] = (out_row[j] + bias[j]).max(0.0);
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
    avx_zip!(sub, _mm256_sub_ps, |x: f32, y: f32| x - y);
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

    /// Row-wise broadcast scale: `out[r] = factors[r] · x[r]`.
    #[target_feature(enable = "avx")]
    pub fn scale_rows(x: &[f32], factors: &[f32], cols: usize, out: &mut [f32]) {
        for (r, &f) in factors.iter().enumerate() {
            scale(
                &x[r * cols..(r + 1) * cols],
                f,
                &mut out[r * cols..(r + 1) * cols],
            );
        }
    }

    /// Adds the `1 × m` bias row to every row.
    #[target_feature(enable = "avx")]
    pub fn add_bias_rows(x: &[f32], bias: &[f32], n: usize, m: usize, out: &mut [f32]) {
        for r in 0..n {
            add(&x[r * m..(r + 1) * m], bias, &mut out[r * m..(r + 1) * m]);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Monomorphizes a portable-lane call over the three supported widths.
macro_rules! portable_widths {
    ($w:expr, $call:ident ( $($arg:expr),* )) => {
        match $w {
            4 => wide::$call::<4>($($arg),*),
            8 => wide::$call::<8>($($arg),*),
            16 => wide::$call::<16>($($arg),*),
            other => unreachable!("unsupported portable lane width {other}"),
        }
    };
}

/// SIMD GEMM driver: the same shape checks, serial cutoff, and
/// `MC`-aligned row-range split as [`kernels::matmul_par`] — only the
/// per-range kernel is vectorized. `b` is packed **once** here, before the
/// thread fan-out, and the read-only strips are shared by all workers.
#[allow(clippy::too_many_arguments)]
fn gemm_simd(
    mode: Mode,
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    par: &Parallelism,
    bias_relu: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(a.len(), n * k, "a must be {n}x{k}");
    assert_eq!(b.len(), k * m, "b must be {k}x{m}");
    assert_eq!(out.len(), n * m, "out must be {n}x{m}");
    if let Some(bias) = bias_relu {
        assert_eq!(bias.len(), m, "bias must be 1x{m}");
    }
    let packed = pack_strips(b, k, m);
    let rows = |lo: usize, hi: usize, part: &mut [f32]| match mode {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Mode::Avx is only constructed after
        // `is_x86_feature_detected!("avx")` returned true.
        Mode::Avx => unsafe { avx::gemm_rows(a, &packed, k, m, lo, hi, bias_relu, part) },
        Mode::Portable(w) => {
            portable_widths!(w, gemm_rows(a, &packed, k, m, lo, hi, bias_relu, part))
        }
    };
    let threads = par.effective_threads().min(n.max(1));
    if threads <= 1 || n * k * m < kernels::PAR_MATMUL_MIN_FLOPS {
        return rows(0, n, out);
    }
    // MC-aligned boundaries keep whole row tiles on one worker; each worker
    // streams the shared packed strips and writes its rows in place.
    let ranges = partition::row_ranges(n, threads, MC);
    partition::par_rows(out, n, m, &ranges, |lo, hi, part| rows(lo, hi, part));
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn gemm(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
        epilogue: Epilogue<'_>,
        par: &Parallelism,
        out: &mut [f32],
    ) {
        match epilogue {
            Epilogue::None => gemm_simd(self.mode, a, b, n, k, m, par, None, out),
            Epilogue::BiasRelu(bias) => gemm_simd(self.mode, a, b, n, k, m, par, Some(bias), out),
        }
    }

    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx implies AVX was detected at construction.
            Mode::Avx => unsafe { avx::add(a, b, out) },
            Mode::Portable(w) => portable_widths!(w, zip(a, b, out, |x, y| x + y)),
        }
    }

    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx implies AVX was detected at construction.
            Mode::Avx => unsafe { avx::sub(a, b, out) },
            Mode::Portable(w) => portable_widths!(w, zip(a, b, out, |x, y| x - y)),
        }
    }

    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx implies AVX was detected at construction.
            Mode::Avx => unsafe { avx::mul(a, b, out) },
            Mode::Portable(w) => portable_widths!(w, zip(a, b, out, |x, y| x * y)),
        }
    }

    fn scale(&self, a: &[f32], k: f32, out: &mut [f32]) {
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx implies AVX was detected at construction.
            Mode::Avx => unsafe { avx::scale(a, k, out) },
            Mode::Portable(w) => portable_widths!(w, map(a, out, |x| x * k)),
        }
    }

    fn add_bias_rows(&self, x: &[f32], bias: &[f32], n: usize, m: usize, out: &mut [f32]) {
        assert_eq!(bias.len(), m, "bias must be 1x{m}");
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx implies AVX was detected at construction.
            Mode::Avx => unsafe { avx::add_bias_rows(x, bias, n, m, out) },
            Mode::Portable(w) => {
                for r in 0..n {
                    portable_widths!(
                        w,
                        zip(
                            &x[r * m..(r + 1) * m],
                            bias,
                            &mut out[r * m..(r + 1) * m],
                            |a, b| a + b
                        )
                    );
                }
            }
        }
    }

    fn unary(&self, op: Unary, x: &[f32], out: &mut [f32]) {
        match (op, self.mode) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx implies AVX was detected at construction.
            (Unary::Relu, Mode::Avx) => unsafe { avx::relu(x, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            (Unary::LeakyRelu(s), Mode::Avx) => unsafe { avx::leaky_relu(x, s, out) },
            (Unary::Relu, Mode::Portable(w)) => portable_widths!(w, map(x, out, |v| v.max(0.0))),
            (Unary::LeakyRelu(s), Mode::Portable(w)) => {
                portable_widths!(w, map(x, out, |v| if v > 0.0 { v } else { s * v }))
            }
            // Transcendentals go through libm one element at a time; a
            // vectorized approximation would break bit-identity.
            (Unary::Sigmoid | Unary::Tanh, _) => kernels::unary(op, x, out),
        }
    }

    fn scale_rows(&self, x: &[f32], factors: &[f32], cols: usize, out: &mut [f32]) {
        assert_eq!(x.len(), factors.len() * cols, "one factor per row required");
        match self.mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Mode::Avx implies AVX was detected at construction.
            Mode::Avx => unsafe { avx::scale_rows(x, factors, cols, out) },
            Mode::Portable(w) => {
                for (r, &f) in factors.iter().enumerate() {
                    portable_widths!(
                        w,
                        map(
                            &x[r * cols..(r + 1) * cols],
                            &mut out[r * cols..(r + 1) * cols],
                            |v| { v * f }
                        )
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceBackend;

    fn sample(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic values with exact zeros (zero-skip path) and a
        // negative zero sprinkled in (max/blend edge cases).
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

    fn modes() -> Vec<SimdBackend> {
        let mut v = vec![
            SimdBackend::with_portable_lanes(4),
            SimdBackend::with_portable_lanes(8),
            SimdBackend::with_portable_lanes(16),
        ];
        let auto = SimdBackend::new();
        if auto.is_accelerated() {
            v.push(auto);
        }
        v
    }

    #[test]
    fn simd_matmul_bit_identical_to_reference() {
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (7, 13, 5),
            (33, 64, 17),
            (40, 70, 65),
        ] {
            let a = sample(n * k, (n * 31 + k) as u32);
            let b = sample(k * m, (k * 17 + m) as u32);
            for backend in modes() {
                for threads in [1usize, 2, 4] {
                    let par = Parallelism::pinned(threads);
                    let mut want = vec![0.0f32; n * m];
                    ReferenceBackend.gemm(&a, &b, n, k, m, Epilogue::None, &par, &mut want);
                    let mut got = vec![0.0f32; n * m];
                    backend.gemm(&a, &b, n, k, m, Epilogue::None, &par, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{n}x{k}x{m} lanes={} threads={threads}",
                            backend.lane_width()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_linear_relu_bit_identical_to_unfused() {
        let (n, k, m) = (35usize, 70usize, 33usize);
        let x = sample(n * k, 3);
        let w = sample(k * m, 4);
        let bias = sample(m, 5);
        let par = Parallelism::with_threads(1);
        let mut unfused = vec![0.0f32; n * m];
        kernels::matmul_par(&x, &w, n, k, m, &par, &mut unfused);
        kernels::bias_relu_inplace(&mut unfused, &bias, n, m);
        for backend in modes() {
            let mut fused = vec![0.0f32; n * m];
            backend.gemm(&x, &w, n, k, m, Epilogue::BiasRelu(&bias), &par, &mut fused);
            for (a, b) in fused.iter().zip(&unfused) {
                assert_eq!(a.to_bits(), b.to_bits(), "lanes={}", backend.lane_width());
            }
        }
    }

    #[test]
    fn elementwise_family_bit_identical_to_reference() {
        // 67 elements: 8 full 8-lane vectors plus a 3-element scalar tail.
        let a = sample(67, 11);
        let b = sample(67, 12);
        for backend in modes() {
            let lanes = backend.lane_width();
            let mut want = vec![0.0f32; 67];
            let mut got = vec![0.0f32; 67];
            ReferenceBackend.add(&a, &b, &mut want);
            backend.add(&a, &b, &mut got);
            assert_eq!(bits(&got), bits(&want), "add lanes={lanes}");
            ReferenceBackend.sub(&a, &b, &mut want);
            backend.sub(&a, &b, &mut got);
            assert_eq!(bits(&got), bits(&want), "sub lanes={lanes}");
            ReferenceBackend.mul(&a, &b, &mut want);
            backend.mul(&a, &b, &mut got);
            assert_eq!(bits(&got), bits(&want), "mul lanes={lanes}");
            ReferenceBackend.scale(&a, -1.75, &mut want);
            backend.scale(&a, -1.75, &mut got);
            assert_eq!(bits(&got), bits(&want), "scale lanes={lanes}");
        }
    }

    #[test]
    fn activations_and_row_ops_bit_identical_to_reference() {
        let x = sample(67, 21);
        for backend in modes() {
            let lanes = backend.lane_width();
            let mut want = vec![0.0f32; 67];
            let mut got = vec![0.0f32; 67];
            for op in [
                Unary::Relu,
                Unary::LeakyRelu(0.2),
                Unary::Sigmoid,
                Unary::Tanh,
            ] {
                ReferenceBackend.unary(op, &x, &mut want);
                backend.unary(op, &x, &mut got);
                assert_eq!(bits(&got), bits(&want), "{op:?} lanes={lanes}");
            }
            // 5 rows x 13 cols exercises the unaligned row width.
            let rows = sample(5 * 13, 22);
            let factors = sample(5, 23);
            let bias = sample(13, 24);
            let mut want = vec![0.0f32; 5 * 13];
            let mut got = vec![0.0f32; 5 * 13];
            ReferenceBackend.scale_rows(&rows, &factors, 13, &mut want);
            backend.scale_rows(&rows, &factors, 13, &mut got);
            assert_eq!(bits(&got), bits(&want), "scale_rows lanes={lanes}");
            ReferenceBackend.add_bias_rows(&rows, &bias, 5, 13, &mut want);
            backend.add_bias_rows(&rows, &bias, 5, 13, &mut got);
            assert_eq!(bits(&got), bits(&want), "add_bias_rows lanes={lanes}");
        }
    }

    #[test]
    fn lane_width_reporting() {
        assert_eq!(SimdBackend::with_portable_lanes(4).lane_width(), 4);
        assert_eq!(SimdBackend::with_portable_lanes(16).lane_width(), 16);
        assert!(!SimdBackend::with_portable_lanes(8).is_accelerated());
        let auto = SimdBackend::new();
        assert!(matches!(auto.lane_width(), 4 | 8 | 16));
    }

    #[test]
    #[should_panic(expected = "portable lane width")]
    fn rejects_unsupported_lane_width() {
        let _ = SimdBackend::with_portable_lanes(3);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
