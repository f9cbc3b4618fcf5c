//! Roofline-attributed profiling decorator over any execution backend.
//!
//! [`ProfiledBackend`] wraps an inner [`Backend`], forwards every kernel to
//! it unchanged (values stay bit-identical), and — while `mega_obs` is
//! enabled — records three things per call into the
//! `exec.profiled.<kernel>.*` namespace:
//!
//! * `.calls` / `.flops` / `.bytes` **counters** — the kernel's analytic
//!   work and minimum memory traffic, computed from the launch shape alone,
//!   so they are bit-identical across runs and appear in deterministic
//!   snapshots;
//! * `.ns` **timing histogram** — measured wall clock per call (full
//!   snapshots and the Chrome trace only; deterministic snapshots keep the
//!   sample count).
//!
//! Combined with a [`Calibration`] (the machine's peak GEMM GFLOP/s and
//! STREAM-triad GB/s), `mega report` places every kernel on the roofline:
//! arithmetic intensity `AI = flops / bytes`, attainable rate
//! `min(peak_flops, AI · bandwidth)`, and achieved-vs-roof utilization.
//!
//! The disabled path costs one relaxed atomic load per kernel call (the
//! [`mega_obs::timer`] gate), so the decorator can stay attached to a
//! production trainer; `tests/profiled.rs` gates the overhead at ≤ 5% of
//! the unwrapped backend on the 512×512 GEMM harness.

use crate::{Backend, Epilogue, NormKind, Operand, Unary};
use mega_core::band::BandMask;
use mega_core::Parallelism;
use std::sync::Arc;

/// Bytes of one `f32`.
const F32: u64 = 4;
/// Bytes of one `usize` index entry (as moved by gather/scatter).
const IDX: u64 = std::mem::size_of::<usize>() as u64;

/// Wraps an inner backend and attributes every kernel call with FLOPs,
/// bytes moved, and wall time (see the module docs).
#[derive(Debug)]
pub struct ProfiledBackend {
    inner: Arc<dyn Backend>,
}

impl ProfiledBackend {
    /// Decorates `inner`. Forwarded values are bit-identical to `inner`'s.
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        ProfiledBackend { inner }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn Backend> {
        &self.inner
    }

    /// Records one attributed kernel call. `timer` was started before the
    /// inner dispatch, so the observed duration covers the kernel alone —
    /// the counter bookkeeping below it is excluded from the measurement.
    fn record(&self, kernel: &str, flops: u64, bytes: u64, timer: mega_obs::Timer) {
        let mut name = String::with_capacity(14 + kernel.len() + 6);
        name.push_str("exec.profiled.");
        name.push_str(kernel);
        let base = name.len();
        name.push_str(".ns");
        timer.observe(&name);
        if !mega_obs::enabled() {
            return;
        }
        name.truncate(base);
        name.push_str(".calls");
        mega_obs::counter_add(&name, 1);
        name.truncate(base);
        name.push_str(".flops");
        mega_obs::counter_add(&name, flops);
        name.truncate(base);
        name.push_str(".bytes");
        mega_obs::counter_add(&name, bytes);
    }
}

/// Work and traffic of an elementwise kernel over `len` outputs reading
/// `reads` input streams.
fn elementwise(len: usize, flops_per_elem: u64, reads: u64) -> (u64, u64) {
    let len = len as u64;
    (len * flops_per_elem, len * F32 * (reads + 1))
}

impl Backend for ProfiledBackend {
    fn name(&self) -> &'static str {
        "profiled"
    }

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
        let t = mega_obs::timer();
        self.inner.gemm(a, b, n, k, m, epilogue, par, out);
        let (n64, k64, m64) = (n as u64, k as u64, m as u64);
        // An epilogue reads the bias row and charges its add (and max) per
        // output; a bias alone stays under `matmul`, the GEMM it finishes.
        let (kernel, epilogue_flops, bias_len) = match epilogue {
            Epilogue::None => ("matmul", 0, 0),
            Epilogue::Bias(_) => ("matmul", 1, m64),
            Epilogue::BiasRelu(_) => ("linear_relu", 2, m64),
        };
        self.record(
            kernel,
            2 * n64 * k64 * m64 + epilogue_flops * n64 * m64,
            F32 * (n64 * k64 + k64 * m64 + bias_len + n64 * m64),
            t,
        );
    }

    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        let t = mega_obs::timer();
        self.inner.add(a, b, out);
        let (f, by) = elementwise(out.len(), 1, 2);
        self.record("add", f, by, t);
    }

    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        let t = mega_obs::timer();
        self.inner.sub(a, b, out);
        let (f, by) = elementwise(out.len(), 1, 2);
        self.record("sub", f, by, t);
    }

    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        let t = mega_obs::timer();
        self.inner.mul(a, b, out);
        let (f, by) = elementwise(out.len(), 1, 2);
        self.record("mul", f, by, t);
    }

    fn scale(&self, a: &[f32], k: f32, out: &mut [f32]) {
        let t = mega_obs::timer();
        self.inner.scale(a, k, out);
        let (f, by) = elementwise(out.len(), 1, 1);
        self.record("scale", f, by, t);
    }

    fn add_bias_rows(&self, x: &[f32], bias: &[f32], n: usize, m: usize, out: &mut [f32]) {
        let t = mega_obs::timer();
        self.inner.add_bias_rows(x, bias, n, m, out);
        let (n64, m64) = (n as u64, m as u64);
        self.record("add_bias_rows", n64 * m64, F32 * (2 * n64 * m64 + m64), t);
    }

    fn unary(&self, op: Unary, x: &[f32], out: &mut [f32]) {
        let t = mega_obs::timer();
        self.inner.unary(op, x, out);
        // Fixed per-op flop charges so the attribution is deterministic:
        // cheap comparisons for the ReLU family, a nominal 8 for the
        // transcendentals.
        let fpe = match op {
            Unary::Relu => 1,
            Unary::LeakyRelu(_) => 2,
            Unary::Sigmoid | Unary::Tanh => 8,
        };
        let (f, by) = elementwise(out.len(), fpe, 1);
        self.record("unary", f, by, t);
    }

    fn gather_rows(
        &self,
        src: &[f32],
        src_rows: usize,
        cols: usize,
        index: &[usize],
        out: &mut [f32],
    ) {
        let t = mega_obs::timer();
        self.inner.gather_rows(src, src_rows, cols, index, out);
        let rows = index.len() as u64;
        self.record("gather_rows", 0, rows * (2 * cols as u64 * F32 + IDX), t);
    }

    fn scatter_add_rows(
        &self,
        src: &[f32],
        index: &[usize],
        cols: usize,
        out_rows: usize,
        out: &mut [f32],
    ) {
        let t = mega_obs::timer();
        self.inner.scatter_add_rows(src, index, cols, out_rows, out);
        let rows = index.len() as u64;
        let c = cols as u64;
        self.record("scatter_add_rows", rows * c, rows * (2 * c * F32 + IDX), t);
    }

    fn scale_rows(&self, x: &[f32], factors: &[f32], cols: usize, out: &mut [f32]) {
        let t = mega_obs::timer();
        self.inner.scale_rows(x, factors, cols, out);
        let len = out.len() as u64;
        let rows = len / (cols.max(1) as u64);
        self.record("scale_rows", len, 2 * len * F32 + rows * F32, t);
    }

    fn segment_softmax(
        &self,
        x: &[f32],
        rows: usize,
        cols: usize,
        segments: &[usize],
        n_segments: usize,
        out: &mut [f32],
    ) {
        let t = mega_obs::timer();
        self.inner
            .segment_softmax(x, rows, cols, segments, n_segments, out);
        let len = (rows * cols) as u64;
        // Max, subtract, exp (nominal 8), sum, divide per element.
        self.record(
            "segment_softmax",
            12 * len,
            2 * len * F32 + rows as u64 * IDX,
            t,
        );
    }

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
        let t = mega_obs::timer();
        self.inner
            .norm(kind, x, gamma, beta, rows, cols, eps, act, out);
        let len = (rows * cols) as u64;
        // Mean + variance passes, then normalize-scale-shift (8 per
        // element); a fused activation adds one in-place sweep.
        let (kernel, flops_per_elem) = match (kind, act) {
            (NormKind::Layer, None) => ("layer_norm", 8),
            (NormKind::Batch, None) => ("batch_norm", 8),
            (NormKind::Layer, Some(_)) => ("layer_norm_act", 9),
            (NormKind::Batch, Some(_)) => ("batch_norm_act", 9),
        };
        self.record(
            kernel,
            flops_per_elem * len,
            2 * len * F32 + 2 * cols as u64 * F32,
            t,
        );
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
        let t = mega_obs::timer();
        self.inner.banded_aggregate(band, x, dim, weights, par, out);
        let edges = band.covered_edge_count() as u64;
        let d = dim as u64;
        // Each covered edge contributes a weighted row to both endpoints:
        // one multiply + one add per feature, twice (symmetric band).
        self.record(
            "banded_aggregate",
            4 * edges * d,
            F32 * (2 * (x.len() as u64) + edges + out.len() as u64),
            t,
        );
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
        let t = mega_obs::timer();
        self.inner
            .banded_weight_grad(band, x, d_out, dim, edge_count, par, out);
        let edges = band.covered_edge_count() as u64;
        let d = dim as u64;
        // Per covered edge: a dot product of two feature rows, mirrored.
        self.record(
            "banded_weight_grad",
            4 * edges * d,
            F32 * (x.len() as u64 + d_out.len() as u64 + edge_count as u64),
            t,
        );
    }
}

/// Machine roofs for the roofline attribution: peak dense-GEMM compute and
/// STREAM-triad memory bandwidth.
///
/// [`Calibration::measure`] produces machine-specific roofs (wall-clock —
/// never byte-stable across hosts); [`Calibration::reference`] is the fixed
/// documented fallback `mega report` uses by default, so CI reports stay
/// byte-identical. Utilization numbers against the reference roofs are
/// *relative placements*, not absolute hardware efficiency — recalibrate
/// (`mega report --calibrate`) before reading them as machine truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Peak sustained dense-GEMM rate, GFLOP/s.
    pub gemm_gflops: f64,
    /// Peak sustained STREAM-triad bandwidth, GB/s.
    pub triad_gbps: f64,
}

impl Calibration {
    /// The fixed reference roofs used when no machine calibration is given:
    /// a nominal single-core scalar CPU (8 GFLOP/s, 16 GB/s). Chosen so
    /// reports are deterministic, not so utilizations read as absolutes.
    pub fn reference() -> Self {
        Calibration {
            gemm_gflops: 8.0,
            triad_gbps: 16.0,
        }
    }

    /// One-shot machine calibration: best-of-`reps` 256³ GEMM on `backend`
    /// for the compute roof, best-of-`reps` STREAM triad
    /// (`a[i] = b[i] + s·c[i]`, 12 bytes moved per element) for the
    /// bandwidth roof. Takes a fraction of a second in release builds.
    pub fn measure(backend: &dyn Backend) -> Self {
        const N: usize = 256;
        const REPS: usize = 3;
        let par = Parallelism::with_threads(1);
        let a = vec![1.0f32; N * N];
        let b = vec![0.5f32; N * N];
        let (a, b) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        let mut out = vec![0.0f32; N * N];
        let mut best_gemm = f64::INFINITY;
        for _ in 0..REPS {
            let sw = mega_obs::Stopwatch::start();
            backend.gemm(a, b, N, N, N, Epilogue::None, &par, &mut out);
            best_gemm = best_gemm.min(sw.elapsed_seconds());
        }
        let gemm_gflops = 2.0 * (N as f64).powi(3) / best_gemm / 1e9;

        const LEN: usize = 1 << 22; // 16 MiB per buffer: past every cache.
        let tb = vec![1.0f32; LEN];
        let tc = vec![2.0f32; LEN];
        let mut ta = vec![0.0f32; LEN];
        let mut best_triad = f64::INFINITY;
        for _ in 0..REPS {
            let sw = mega_obs::Stopwatch::start();
            for ((o, &x), &y) in ta.iter_mut().zip(&tb).zip(&tc) {
                *o = x + 3.0 * y;
            }
            best_triad = best_triad.min(sw.elapsed_seconds());
        }
        // Keep the result observable so the triad loop cannot be elided.
        assert!(ta[LEN / 2] == 7.0, "triad result clobbered");
        Calibration {
            gemm_gflops,
            triad_gbps: 12.0 * LEN as f64 / best_triad / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceBackend;

    /// Serializes tests that toggle the process-global obs registry.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn counter(snap: &mega_obs::Snapshot, name: &str) -> u64 {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    #[test]
    fn forwards_bit_identically_and_attributes_flops() {
        let _g = guard();
        mega_obs::reset();
        mega_obs::set_enabled(true);
        let raw = ReferenceBackend;
        let profiled = ProfiledBackend::new(Arc::new(ReferenceBackend));
        let par = Parallelism::with_threads(1);
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [0.5f32, -1.0, 2.0, 0.25, -0.5, 1.5];
        let (oa, ob) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        let mut want = [0.0f32; 4];
        let mut got = [0.0f32; 4];
        raw.gemm(oa, ob, 2, 3, 2, Epilogue::None, &par, &mut want);
        profiled.gemm(oa, ob, 2, 3, 2, Epilogue::None, &par, &mut got);
        assert_eq!(want, got, "decorator must not perturb values");
        let mut w2 = [0.0f32; 6];
        let mut g2 = [0.0f32; 6];
        raw.unary(Unary::Relu, &b, &mut w2);
        profiled.unary(Unary::Relu, &b, &mut g2);
        assert_eq!(w2, g2);
        mega_obs::set_enabled(false);
        let snap = mega_obs::snapshot();
        assert_eq!(counter(&snap, "exec.profiled.matmul.calls"), 1);
        assert_eq!(counter(&snap, "exec.profiled.matmul.flops"), 2 * 2 * 3 * 2);
        assert_eq!(
            counter(&snap, "exec.profiled.matmul.bytes"),
            4 * (6 + 6 + 4)
        );
        assert_eq!(counter(&snap, "exec.profiled.unary.calls"), 1);
        let timing = snap
            .timings
            .iter()
            .find(|(n, _)| n == "exec.profiled.matmul.ns");
        assert_eq!(timing.map(|(_, h)| h.count), Some(1));
        mega_obs::reset();
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let _g = guard();
        mega_obs::reset();
        mega_obs::set_enabled(false);
        let profiled = ProfiledBackend::new(Arc::new(ReferenceBackend));
        let par = Parallelism::with_threads(1);
        let a = Operand::RowMajor(&[1.0f32; 4]);
        let mut out = [0.0f32; 4];
        profiled.gemm(a, a, 2, 2, 2, Epilogue::None, &par, &mut out);
        let snap = mega_obs::snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|(n, _)| n.starts_with("exec.profiled.")));
    }

    #[test]
    fn reference_calibration_is_fixed() {
        let c = Calibration::reference();
        assert_eq!(c.gemm_gflops, 8.0);
        assert_eq!(c.triad_gbps, 16.0);
    }
}
