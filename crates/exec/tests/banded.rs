//! Bit-identity of the band engine against its slot walk, on real
//! traversal-derived bands — the one grid: explicit chunk geometries through
//! the `_with_plan` entry points, pinned worker counts through the public
//! kernels and through every backend, `dim ∈ {0, 1, 5}`, forward and
//! gradient. CI's race-check leg runs this whole file with the shadow writer
//! map armed, so the same grid is also the checked row-ownership proof.
//!
//! The walk (`banded_*_serial`) is the oracle of everything here *and* a
//! kernel under edit, so `band_bits_are_pinned` holds it still from outside.

use mega_core::band::BandMask;
use mega_core::config::{CandidatePolicy, MegaConfig, WindowPolicy};
use mega_core::parallel::{ChunkPlan, Parallelism};
use mega_core::preprocess;
use mega_exec::kernels::{
    banded_aggregate, banded_aggregate_serial, banded_aggregate_with_plan, banded_weight_grad,
    banded_weight_grad_serial, banded_weight_grad_with_plan,
};
use mega_exec::{Backend, ProfiledBackend, ReferenceBackend, SimdBackend};
use mega_graph::{generate, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn er_graph(n: usize, seed: u64) -> Graph {
    generate::erdos_renyi(n, 0.2, &mut StdRng::seed_from_u64(seed)).unwrap()
}

/// The band of `g` under `cfg`, and the working graph's edge count.
fn band_of(g: &Graph, cfg: &MegaConfig) -> (BandMask, usize) {
    let sched = preprocess(g, cfg).unwrap();
    (sched.band().clone(), sched.working_graph().edge_count())
}

fn random_values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Forward and gradient at width `dim` through every route — each explicit
/// chunk size via `_with_plan`, each worker count via the kernels and via
/// every backend — against the walk, all on zeroed buffers.
fn check_routes(band: &BandMask, edges: usize, dim: usize, chunks: &[usize], workers: &[usize]) {
    let x = random_values(band.len() * dim, 7);
    let d_out = random_values(band.len() * dim, 8);
    let weights = random_values(edges, 9);
    let zeroed = || (vec![0.0f32; x.len()], vec![0.0f32; edges]);
    let (mut fwd, mut grad) = zeroed();
    banded_aggregate_serial(band, &x, dim, &weights, &mut fwd);
    banded_weight_grad_serial(band, &x, &d_out, dim, &mut grad);
    let check = |what: String, out: &[f32], dw: &[f32]| {
        assert_eq!(bits(out), bits(&fwd), "forward, dim={dim} {what}");
        assert_eq!(bits(dw), bits(&grad), "gradient, dim={dim} {what}");
    };
    for &chunk in chunks {
        let plan = ChunkPlan::build(band.len(), band.window(), chunk.max(1));
        let (mut out, mut dw) = zeroed();
        banded_aggregate_with_plan(band, &x, dim, &weights, &plan, &mut out);
        banded_weight_grad_with_plan(band, &x, &d_out, dim, &plan, &mut dw);
        check(format!("chunk={chunk}"), &out, &dw);
    }
    let backends: [Box<dyn Backend>; 3] = [
        Box::new(ReferenceBackend),
        Box::new(SimdBackend::new()),
        Box::new(ProfiledBackend::new(Arc::new(ReferenceBackend))),
    ];
    for &t in workers {
        let par = Parallelism::pinned(t);
        let (mut out, mut dw) = zeroed();
        banded_aggregate(band, &x, dim, &weights, &par, &mut out);
        banded_weight_grad(band, &x, &d_out, dim, &par, &mut dw);
        check(format!("kernels, workers={t}"), &out, &dw);
        for b in &backends {
            let (mut out, mut dw) = zeroed();
            b.banded_aggregate(band, &x, dim, &weights, &par, &mut out);
            b.banded_weight_grad(band, &x, &d_out, dim, edges, &par, &mut dw);
            check(format!("{}, workers={t}", b.name()), &out, &dw);
        }
    }
}

fn grid(n: usize, w: usize) {
    let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(w));
    let (band, edges) = band_of(&er_graph(n, n as u64), &cfg);
    for dim in [0usize, 1, 5] {
        let chunks = [1, w, 4 * w, band.len()];
        check_routes(&band, edges, dim, &chunks, &[1, 2, 3, 4, 8, 64]);
    }
}

#[test]
fn parallel_aggregation_bit_identical_to_serial() {
    grid(40, 3);
}

#[test]
fn weight_grad_bit_identical_to_serial() {
    grid(30, 2);
}

/// An empty band is a no-op at every worker count, like `dim == 0` in the
/// grid above (which used to panic at two workers and return at one).
#[test]
fn empty_band_is_a_no_op_at_every_worker_count() {
    let band = BandMask::build(&generate::cycle(3).unwrap(), &[], 2);
    check_routes(&band, 3, 4, &[1, 8], &[1, 2, 64]);
}

/// The slot walk's output bits (FNV-1a) on a fixed BA(500, 3) band at dim 9.
/// The constant was computed with the kernels as they stood before they wrote
/// in place (commit 4d6921c): every other test here compares against the
/// walk, so only a value from outside it shows that the walk kept its bits.
#[test]
fn band_bits_are_pinned() {
    let g = generate::barabasi_albert(500, 3, &mut StdRng::seed_from_u64(20)).unwrap();
    let (band, edges) = band_of(&g, &MegaConfig::default());
    let dim = 9;
    let x = random_values(band.len() * dim, 21);
    let d_out = random_values(band.len() * dim, 22);
    let weights = random_values(edges, 23);
    let (mut fwd, mut dw) = (vec![0.0f32; x.len()], vec![0.0f32; edges]);
    banded_aggregate_serial(&band, &x, dim, &weights, &mut fwd);
    banded_weight_grad_serial(&band, &x, &d_out, dim, &mut dw);
    let bytes = fwd
        .iter()
        .chain(&dw)
        .flat_map(|v| v.to_bits().to_le_bytes());
    let hash = bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(hash, 0xafa6_581b_758f_0a35);
}

/// A buffer of the wrong length is refused by name, before any job is
/// spawned — so the message reaches the caller at every worker count.
#[test]
fn shape_mismatches_name_the_argument() {
    let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(2));
    let (band, edges) = band_of(&er_graph(30, 30), &cfg);
    let dim = 3;
    let x = random_values(band.len() * dim, 1);
    let weights = random_values(edges, 2);
    let (b, short) = (ReferenceBackend, &x[1..]);
    for t in [1usize, 2] {
        let par = Parallelism::pinned(t);
        let (mut out, mut dw) = (vec![0.0f32; x.len()], vec![0.0f32; edges]);
        let refused = |what: &str, f: &mut dyn FnMut()| {
            let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(what), "workers={t}: {msg}");
        };
        refused("x must be L x dim", &mut || {
            b.banded_aggregate(&band, short, dim, &weights, &par, &mut out)
        });
        refused("out must be L x dim", &mut || {
            b.banded_aggregate(&band, &x, dim, &weights, &par, &mut out[1..])
        });
        refused("d_out must be L x dim", &mut || {
            b.banded_weight_grad(&band, &x, short, dim, edges, &par, &mut dw)
        });
        refused("out must hold edge_count", &mut || {
            b.banded_weight_grad(&band, &x, &x, dim, edges, &par, &mut dw[1..])
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graph, traversal config, feature width, chunk size and worker
    /// count: every route reproduces the walk's bits.
    #[test]
    fn band_engine_matches_the_walk_on_random_bands(
        (n, graph_seed) in (2usize..30, 0u64..1000),
        (window, policy, seed) in (1usize..5, 0usize..3, 0u64..100),
        dim in 0usize..7,
        workers in 1usize..9,
        chunk in 1usize..40,
    ) {
        let policies = [
            CandidatePolicy::CorrelateArgmax,
            CandidatePolicy::FirstCandidate,
            CandidatePolicy::Random,
        ];
        let cfg = MegaConfig::default()
            .with_window(WindowPolicy::Fixed(window))
            .with_policy(policies[policy])
            .with_seed(seed);
        let (band, edges) = band_of(&er_graph(n, graph_seed), &cfg);
        check_routes(&band, edges, dim, &[chunk], &[workers]);
    }
}
