//! A profiling decorator over any execution backend.
//!
//! [`SimBackend`] wraps an inner [`Backend`], forwards every kernel to it
//! unchanged (so values stay bit-identical to the inner backend), and replays
//! the *launch shape* of each call through the [`Profiler`]'s memory-system
//! model — the same coalescer/cache/roofline pipeline the epoch cost model
//! uses, but now fed the real shapes the training stack executes instead of
//! analytic operator counts. Attach it with `--backend sim` on the CLI to get
//! an nvprof-style per-kernel report for an actual training run.

use crate::device::DeviceConfig;
use crate::profiler::Profiler;
use crate::report::ProfileReport;
use mega_core::band::BandMask;
use mega_core::Parallelism;
use mega_exec::{Backend, Epilogue, NormKind, Operand, Unary};
use std::sync::{Arc, Mutex};

/// Wraps an inner backend and records every kernel launch in a simulated
/// GPU profiler.
///
/// The profiler is behind a mutex because [`Backend`] is `Sync` while the
/// simulator mutates cache state per launch; contention is irrelevant since
/// kernel dispatch is already serialized per tape.
#[derive(Debug)]
pub struct SimBackend {
    inner: Arc<dyn Backend>,
    profiler: Mutex<Profiler>,
}

impl SimBackend {
    /// Decorates `inner`, simulating launches on `device`.
    pub fn new(inner: Arc<dyn Backend>, device: DeviceConfig) -> Self {
        SimBackend {
            inner,
            profiler: Mutex::new(Profiler::new(device)),
        }
    }

    /// The nvprof-style report of every launch recorded so far.
    pub fn report(&self) -> ProfileReport {
        self.profiler.lock().expect("profiler poisoned").report()
    }

    /// Simulated seconds accumulated across recorded launches.
    pub fn elapsed_seconds(&self) -> f64 {
        self.profiler
            .lock()
            .expect("profiler poisoned")
            .elapsed_seconds()
    }

    /// Records a dense GEMM launch of shape `m × n × k`.
    fn sim_sgemm(&self, n: usize, k: usize, m: usize) {
        let mut p = self.profiler.lock().expect("profiler poisoned");
        let a = p.alloc(n * k * 4);
        let b = p.alloc(k * m * 4);
        let c = p.alloc(n * m * 4);
        p.launch_sgemm(a, b, c, n, m, k);
    }

    /// Records an elementwise launch over `elements` values.
    fn sim_elementwise(&self, elements: usize, flops_per_element: u64) {
        let mut p = self.profiler.lock().expect("profiler poisoned");
        let buf = p.alloc(elements * 4);
        p.launch_elementwise(buf, elements, flops_per_element);
    }

    /// Records a fused linear+activation launch of shape `n × k × m` — one
    /// sgemm whose bias/activation epilogue runs in registers, not a
    /// separate elementwise pass over the output.
    fn sim_linear_relu(&self, n: usize, k: usize, m: usize) {
        let mut p = self.profiler.lock().expect("profiler poisoned");
        let a = p.alloc(n * k * 4);
        let b = p.alloc(k * m * 4);
        let c = p.alloc(n * m * 4);
        p.launch_linear_relu(a, b, c, n, m, k);
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
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
        self.inner.gemm(a, b, n, k, m, epilogue, par, out);
        match epilogue {
            // A bias alone rides the accumulator store: no extra sweep.
            Epilogue::None | Epilogue::Bias(_) => self.sim_sgemm(n, k, m),
            Epilogue::BiasRelu(_) => self.sim_linear_relu(n, k, m),
        }
    }

    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.inner.add(a, b, out);
        self.sim_elementwise(out.len(), 1);
    }

    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.inner.sub(a, b, out);
        self.sim_elementwise(out.len(), 1);
    }

    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.inner.mul(a, b, out);
        self.sim_elementwise(out.len(), 1);
    }

    fn scale(&self, a: &[f32], k: f32, out: &mut [f32]) {
        self.inner.scale(a, k, out);
        self.sim_elementwise(out.len(), 1);
    }

    fn add_bias_rows(&self, x: &[f32], bias: &[f32], n: usize, m: usize, out: &mut [f32]) {
        self.inner.add_bias_rows(x, bias, n, m, out);
        self.sim_elementwise(n * m, 1);
    }

    fn unary(&self, op: Unary, x: &[f32], out: &mut [f32]) {
        self.inner.unary(op, x, out);
        // Transcendental activations cost more flops than clamps.
        let flops = match op {
            Unary::Relu | Unary::LeakyRelu(_) => 1,
            Unary::Sigmoid | Unary::Tanh => 8,
        };
        self.sim_elementwise(out.len(), flops);
    }

    fn gather_rows(
        &self,
        src: &[f32],
        src_rows: usize,
        cols: usize,
        index: &[usize],
        out: &mut [f32],
    ) {
        self.inner.gather_rows(src, src_rows, cols, index, out);
        let mut p = self.profiler.lock().expect("profiler poisoned");
        let buf = p.alloc(src_rows * cols * 4);
        p.launch_gather(buf, index, cols, index.len());
    }

    fn scatter_add_rows(
        &self,
        src: &[f32],
        index: &[usize],
        cols: usize,
        out_rows: usize,
        out: &mut [f32],
    ) {
        self.inner.scatter_add_rows(src, index, cols, out_rows, out);
        let mut p = self.profiler.lock().expect("profiler poisoned");
        let buf = p.alloc(out_rows * cols * 4);
        p.launch_scatter(buf, index, cols, index.len());
    }

    fn scale_rows(&self, x: &[f32], factors: &[f32], cols: usize, out: &mut [f32]) {
        self.inner.scale_rows(x, factors, cols, out);
        self.sim_elementwise(out.len(), 1);
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
        self.inner
            .segment_softmax(x, rows, cols, segments, n_segments, out);
        // Three passes (max, exp+sum, divide); exp dominates.
        self.sim_elementwise(rows * cols, 10);
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
        self.inner
            .norm(kind, x, gamma, beta, rows, cols, eps, act, out);
        // A fused activation adds one flop per element to the norm passes.
        self.sim_elementwise(rows * cols, 8 + u64::from(act.is_some()));
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
        self.inner.banded_aggregate(band, x, dim, weights, par, out);
        let mut p = self.profiler.lock().expect("profiler poisoned");
        let buf = p.alloc(band.len().max(1) * dim * 4);
        p.launch_band_gather(buf, band.len(), band.window(), dim);
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
        self.inner
            .banded_weight_grad(band, x, d_out, dim, edge_count, par, out);
        let mut p = self.profiler.lock().expect("profiler poisoned");
        let x_buf = p.alloc(band.len().max(1) * dim * 4);
        let g_buf = p.alloc(band.len().max(1) * dim * 4);
        p.launch_band_wgrad(x_buf, g_buf, band.len(), band.window(), dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_exec::ReferenceBackend;

    #[test]
    fn sim_backend_forwards_values_and_records_launches() {
        let sim = SimBackend::new(Arc::new(ReferenceBackend), DeviceConfig::gtx_1080());
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let (a, b) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        let mut out = [0.0f32; 4];
        let par = Parallelism::with_threads(1);
        sim.gemm(a, b, 2, 2, 2, Epilogue::None, &par, &mut out);
        let mut reference = [0.0f32; 4];
        ReferenceBackend.gemm(a, b, 2, 2, 2, Epilogue::None, &par, &mut reference);
        assert_eq!(out, reference);
        let report = sim.report();
        assert!(!report.kernels().is_empty(), "sgemm launch not recorded");
        assert!(sim.elapsed_seconds() > 0.0);
    }

    #[test]
    fn gather_and_band_launches_are_recorded() {
        let sim = SimBackend::new(Arc::new(ReferenceBackend), DeviceConfig::gtx_1080());
        let src = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 4];
        sim.gather_rows(&src, 2, 2, &[1, 0], &mut out);
        assert_eq!(out, [3.0, 4.0, 1.0, 2.0]);
        assert!(sim.report().kernels().iter().any(|k| k.invocations > 0));
    }

    fn band_fixture() -> BandMask {
        use mega_core::config::{MegaConfig, WindowPolicy};
        use mega_core::traversal::traverse;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = mega_graph::generate::erdos_renyi(24, 0.25, &mut StdRng::seed_from_u64(5)).unwrap();
        let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(2));
        BandMask::from_traversal(&traverse(&g, &cfg).unwrap())
    }

    #[test]
    fn weight_grad_gets_its_own_kernel_identity() {
        use crate::kernel::KernelKind;
        let sim = SimBackend::new(Arc::new(ReferenceBackend), DeviceConfig::gtx_1080());
        let band = band_fixture();
        let dim = 4;
        let par = Parallelism::with_threads(1);
        let x: Vec<f32> = (0..band.len() * dim)
            .map(|i| (i % 7) as f32 - 3.0)
            .collect();
        let d_out: Vec<f32> = (0..band.len() * dim)
            .map(|i| (i % 5) as f32 - 2.0)
            .collect();
        let edges = band
            .active_slots()
            .iter()
            .map(|s| s.edge)
            .max()
            .map_or(0, |m| m + 1);
        let weights: Vec<f32> = (0..edges).map(|i| (i % 3) as f32 - 1.0).collect();

        let mut agg = vec![0.0f32; band.len() * dim];
        sim.banded_aggregate(&band, &x, dim, &weights, &par, &mut agg);
        let mut dw = vec![0.0f32; edges];
        sim.banded_weight_grad(&band, &x, &d_out, dim, edges, &par, &mut dw);

        let report = sim.report();
        let gather = report
            .kernel(KernelKind::MegaBandGather)
            .expect("forward gather recorded");
        let wgrad = report
            .kernel(KernelKind::MegaBandWgrad)
            .expect("weight grad recorded");
        assert_eq!(
            gather.invocations, 1,
            "forward gather attributed separately"
        );
        assert_eq!(wgrad.invocations, 1, "weight grad attributed separately");
    }

    /// Counts the calls reaching each kernel method and computes nothing:
    /// decorators attribute from launch shapes alone.
    #[derive(Debug, Default)]
    struct CountingBackend {
        calls: Mutex<std::collections::BTreeMap<&'static str, usize>>,
    }

    impl CountingBackend {
        fn hit(&self, method: &'static str) {
            *self.calls.lock().unwrap().entry(method).or_default() += 1;
        }
    }

    #[rustfmt::skip]
    impl Backend for CountingBackend {
        fn name(&self) -> &'static str { "counting" }
        fn gemm(&self, _: Operand<'_>, _: Operand<'_>, _: usize, _: usize, _: usize, _: Epilogue<'_>, _: &Parallelism, _: &mut [f32]) { self.hit("gemm") }
        fn add(&self, _: &[f32], _: &[f32], _: &mut [f32]) { self.hit("add") }
        fn sub(&self, _: &[f32], _: &[f32], _: &mut [f32]) { self.hit("sub") }
        fn mul(&self, _: &[f32], _: &[f32], _: &mut [f32]) { self.hit("mul") }
        fn scale(&self, _: &[f32], _: f32, _: &mut [f32]) { self.hit("scale") }
        fn add_bias_rows(&self, _: &[f32], _: &[f32], _: usize, _: usize, _: &mut [f32]) { self.hit("add_bias_rows") }
        fn unary(&self, _: Unary, _: &[f32], _: &mut [f32]) { self.hit("unary") }
        fn gather_rows(&self, _: &[f32], _: usize, _: usize, _: &[usize], _: &mut [f32]) { self.hit("gather_rows") }
        fn scatter_add_rows(&self, _: &[f32], _: &[usize], _: usize, _: usize, _: &mut [f32]) { self.hit("scatter_add_rows") }
        fn scale_rows(&self, _: &[f32], _: &[f32], _: usize, _: &mut [f32]) { self.hit("scale_rows") }
        fn segment_softmax(&self, _: &[f32], _: usize, _: usize, _: &[usize], _: usize, _: &mut [f32]) { self.hit("segment_softmax") }
        fn norm(&self, _: NormKind, _: &[f32], _: &[f32], _: &[f32], _: usize, _: usize, _: f32, _: Option<Unary>, _: &mut [f32]) { self.hit("norm") }
        fn banded_aggregate(&self, _: &BandMask, _: &[f32], _: usize, _: &[f32], _: &Parallelism, _: &mut [f32]) { self.hit("banded_aggregate") }
        fn banded_weight_grad(&self, _: &BandMask, _: &[f32], _: &[f32], _: usize, _: usize, _: &Parallelism, _: &mut [f32]) { self.hit("banded_weight_grad") }
    }

    #[test]
    fn decorators_forward_every_kernel_method_exactly_once() {
        // Every `Backend` method except `name` (a decorator reports its
        // own) must reach the wrapped backend: a decorator that leaves one
        // on the trait default silently runs the reference loops instead
        // of `inner` and records nothing for it.
        let band = band_fixture();
        let par = Parallelism::with_threads(1);
        let x = [1.0f32, -2.0, 3.0, -4.0];
        let row = [0.5f32, -0.5];
        let index = [1usize, 0];
        type Wrap = fn(Arc<dyn Backend>) -> Box<dyn Backend>;
        let decorators: [(&str, Wrap); 2] = [
            ("profiled", |inner| {
                Box::new(mega_exec::ProfiledBackend::new(inner))
            }),
            ("sim", |inner| {
                Box::new(SimBackend::new(inner, DeviceConfig::gtx_1080()))
            }),
        ];
        for (name, wrap) in decorators {
            let counting = Arc::new(CountingBackend::default());
            let d = wrap(counting.clone());
            assert_eq!(d.name(), name);
            let out = &mut [0.0f32; 4];
            let xo = Operand::RowMajor(&x);
            d.gemm(xo, xo, 2, 2, 2, Epilogue::BiasRelu(&row), &par, out);
            d.add(&x, &x, out);
            d.sub(&x, &x, out);
            d.mul(&x, &x, out);
            d.scale(&x, 2.0, out);
            d.add_bias_rows(&x, &row, 2, 2, out);
            d.unary(Unary::Relu, &x, out);
            d.gather_rows(&x, 2, 2, &index, out);
            d.scatter_add_rows(&x, &index, 2, 2, out);
            d.scale_rows(&x, &row, 2, out);
            d.segment_softmax(&x, 2, 2, &index, 2, out);
            let act = Some(Unary::Relu);
            d.norm(NormKind::Batch, &x, &row, &row, 2, 2, 1e-5, act, out);
            d.banded_aggregate(&band, &[], 0, &[], &par, &mut []);
            d.banded_weight_grad(&band, &[], &[], 0, 0, &par, &mut []);
            let calls = counting.calls.lock().unwrap();
            let forwarded: Vec<(&str, usize)> = calls.iter().map(|(k, v)| (*k, *v)).collect();
            let expected: Vec<(&str, usize)> = [
                "add",
                "add_bias_rows",
                "banded_aggregate",
                "banded_weight_grad",
                "gather_rows",
                "gemm",
                "mul",
                "norm",
                "scale",
                "scale_rows",
                "scatter_add_rows",
                "segment_softmax",
                "sub",
                "unary",
            ]
            .map(|m| (m, 1))
            .to_vec();
            assert_eq!(forwarded, expected, "{name}");
        }
    }

    #[test]
    fn sim_over_simd_matches_sim_over_reference() {
        use mega_exec::SimdBackend;
        // Same launch shapes whatever the inner backend: simulated profiling
        // of the SIMD backend sees exactly the counters the reference run
        // sees, and the forwarded values stay bit-identical.
        let over_ref = SimBackend::new(Arc::new(ReferenceBackend), DeviceConfig::gtx_1080());
        let over_simd = SimBackend::new(Arc::new(SimdBackend::new()), DeviceConfig::gtx_1080());
        let par = Parallelism::with_threads(1);
        let (n, k, m) = (17usize, 33usize, 9usize);
        let a: Vec<f32> = (0..n * k)
            .map(|i| ((i * 31 % 19) as f32 - 9.0) / 4.0)
            .collect();
        let b: Vec<f32> = (0..k * m)
            .map(|i| ((i * 17 % 23) as f32 - 11.0) / 6.0)
            .collect();
        let bias: Vec<f32> = (0..m).map(|i| (i as f32 - 4.0) / 3.0).collect();
        let (a, b) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        let mut out_ref = vec![0.0f32; n * m];
        let mut out_simd = vec![0.0f32; n * m];
        for epilogue in [
            Epilogue::None,
            Epilogue::Bias(&bias),
            Epilogue::BiasRelu(&bias),
        ] {
            over_ref.gemm(a, b, n, k, m, epilogue, &par, &mut out_ref);
            over_simd.gemm(a, b, n, k, m, epilogue, &par, &mut out_simd);
            for (x, y) in out_simd.iter().zip(&out_ref) {
                assert_eq!(x.to_bits(), y.to_bits(), "{epilogue:?}");
            }
        }
        let (ra, rb) = (over_ref.report(), over_simd.report());
        for (kr, ks) in ra.kernels().iter().zip(rb.kernels()) {
            assert_eq!(kr.kind, ks.kind, "same kernel taxonomy");
            assert_eq!(
                kr.invocations, ks.invocations,
                "same launch counts for {:?}",
                kr.kind
            );
            assert_eq!(
                kr.load_transactions, ks.load_transactions,
                "same shapes for {:?}",
                kr.kind
            );
        }
    }
}
