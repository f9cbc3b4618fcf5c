//! Bit-identity of the band engine against its slot walk, on real
//! traversal-derived bands — the one grid: explicit chunk geometries through
//! the `_with_plan` entry points, pinned worker counts through the public
//! kernels and through every backend and every SIMD tier the host runs, at
//! widths that fill and overrun a vector block (`DIMS`), forward and
//! gradient. The grid's bands hold more than 33 active slots, so the SIMD
//! weight gradient meets full 8-slot groups and a remainder. CI's
//! race-check leg runs this whole file with the shadow writer map armed, so
//! the same grid is also the checked row-ownership proof.
//!
//! The walk (`banded_*_serial`) is the oracle of everything here *and* a
//! kernel under edit, so `band_bits_are_pinned` holds it still from outside,
//! and `simd_band_bits_are_pinned_at_dim_67` holds the SIMD lanes.

use mega_core::band::BandMask;
use mega_core::config::{CandidatePolicy, MegaConfig, WindowPolicy};
use mega_core::parallel::{ChunkPlan, Parallelism};
use mega_core::preprocess;
use mega_exec::kernels::{
    banded_aggregate, banded_aggregate_serial, banded_aggregate_with_plan, banded_weight_grad,
    banded_weight_grad_serial, banded_weight_grad_with_plan, BandLanes,
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

/// Feature widths of the grid: empty, scalar-only, and ones that fill and
/// overrun the 8- and 16-lane blocks.
const DIMS: [usize; 9] = [0, 1, 5, 8, 16, 17, 33, 64, 67];

/// The band's inputs at width `dim`: features, upstream gradient, weights.
struct Inputs {
    x: Vec<f32>,
    d_out: Vec<f32>,
    weights: Vec<f32>,
}

impl Inputs {
    fn random(band: &BandMask, edges: usize, dim: usize) -> Self {
        Inputs {
            x: random_values(band.len() * dim, 7),
            d_out: random_values(band.len() * dim, 8),
            weights: random_values(edges, 9),
        }
    }
}

/// Forward and gradient at width `dim` through every route — each explicit
/// chunk size via `_with_plan`, each worker count via the kernels and via
/// every backend and SIMD tier — against the walk, all on zeroed buffers.
fn check_routes(band: &BandMask, edges: usize, dim: usize, chunks: &[usize], workers: &[usize]) {
    check_routes_on(
        band,
        dim,
        &Inputs::random(band, edges, dim),
        chunks,
        workers,
    );
}

fn check_routes_on(
    band: &BandMask,
    dim: usize,
    inputs: &Inputs,
    chunks: &[usize],
    workers: &[usize],
) {
    let Inputs { x, d_out, weights } = inputs;
    let edges = weights.len();
    let zeroed = || (vec![0.0f32; x.len()], vec![0.0f32; edges]);
    let (mut fwd, mut grad) = zeroed();
    banded_aggregate_serial(BandLanes::SCALAR, band, x, dim, weights, &mut fwd);
    banded_weight_grad_serial(BandLanes::SCALAR, band, x, d_out, dim, &mut grad);
    let check = |what: String, out: &[f32], dw: &[f32]| {
        assert_eq!(bits(out), bits(&fwd), "forward, dim={dim} {what}");
        assert_eq!(bits(dw), bits(&grad), "gradient, dim={dim} {what}");
    };
    for &chunk in chunks {
        let plan = ChunkPlan::build(band.len(), band.window(), chunk.max(1));
        let (mut out, mut dw) = zeroed();
        banded_aggregate_with_plan(BandLanes::SCALAR, band, x, dim, weights, &plan, &mut out);
        banded_weight_grad_with_plan(BandLanes::SCALAR, band, x, d_out, dim, &plan, &mut dw);
        check(format!("chunk={chunk}"), &out, &dw);
    }
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(ReferenceBackend),
        Box::new(ProfiledBackend::new(Arc::new(ReferenceBackend))),
    ];
    for tier in SimdBackend::all_on_host() {
        backends.push(Box::new(tier));
    }
    for &t in workers {
        let par = Parallelism::pinned(t);
        let (mut out, mut dw) = zeroed();
        banded_aggregate(BandLanes::SCALAR, band, x, dim, weights, &par, &mut out);
        banded_weight_grad(BandLanes::SCALAR, band, x, d_out, dim, &par, &mut dw);
        check(format!("kernels, workers={t}"), &out, &dw);
        for b in &backends {
            let (mut out, mut dw) = zeroed();
            b.banded_aggregate(band, x, dim, weights, &par, &mut out);
            b.banded_weight_grad(band, x, d_out, dim, edges, &par, &mut dw);
            check(format!("{b:?}, workers={t}"), &out, &dw);
        }
    }
}

fn grid(n: usize, w: usize) {
    let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(w));
    let (band, edges) = band_of(&er_graph(n, n as u64), &cfg);
    assert!(
        band.covered_edge_count() > 33,
        "the grid needs full weight-gradient groups"
    );
    for dim in DIMS {
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

/// NaN, ±inf and `-0.0` in the features, the upstream gradient and the
/// weights reach every route through the same operations in the same order,
/// so they land in the same bits. The input NaN is the one the hardware
/// makes of `inf · 0`: which operand's payload a NaN result carries when two
/// meet is not fixed by Rust (nor by LLVM, which may commute an add), so
/// with a single NaN pattern in play the comparison stays exact while NaN
/// positions, infinities and zero signs are all checked.
#[test]
fn non_finite_and_signed_zero_inputs_keep_their_bits() {
    let g = generate::barabasi_albert(200, 3, &mut StdRng::seed_from_u64(40)).unwrap();
    let (band, edges) = band_of(&g, &MegaConfig::default());
    let nan = std::hint::black_box(f32::INFINITY) * 0.0;
    let specials = [nan, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    let sprinkle = |v: &mut Vec<f32>, every: usize| {
        for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % every == 0) {
            *x = specials[(i / every) % specials.len()];
        }
    };
    for dim in [17, 67] {
        let mut inputs = Inputs::random(&band, edges, dim);
        sprinkle(&mut inputs.x, 97);
        sprinkle(&mut inputs.d_out, 89);
        sprinkle(&mut inputs.weights, 13);
        inputs.weights[1] = 0.0;
        check_routes_on(&band, dim, &inputs, &[band.len() / 3], &[1, 2, 3]);
    }
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
    banded_aggregate_serial(BandLanes::SCALAR, &band, &x, dim, &weights, &mut fwd);
    banded_weight_grad_serial(BandLanes::SCALAR, &band, &x, &d_out, dim, &mut dw);
    assert_eq!(fnv1a(&fwd, &dw), 0xafa6_581b_758f_0a35);
}

/// FNV-1a over the bits of the forward output, then the weight gradient.
fn fnv1a(fwd: &[f32], dw: &[f32]) -> u64 {
    let bytes = fwd.iter().chain(dw).flat_map(|v| v.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `SimdBackend`'s output bits on a fixed BA(600, 3) band at dim 67 — four
/// 16-lane blocks and a 3-feature tail, over hundreds of full 8-slot weight
/// gradient groups — for every tier and at one and two workers. The constant
/// was computed before `SimdBackend` had band kernels of its own, when every
/// tier ran the scalar walk.
#[test]
fn simd_band_bits_are_pinned_at_dim_67() {
    let g = generate::barabasi_albert(600, 3, &mut StdRng::seed_from_u64(30)).unwrap();
    let (band, edges) = band_of(&g, &MegaConfig::default());
    let dim = 67;
    let x = random_values(band.len() * dim, 31);
    let d_out = random_values(band.len() * dim, 32);
    let weights = random_values(edges, 33);
    for backend in SimdBackend::all_on_host() {
        for workers in [1, 2] {
            let par = Parallelism::pinned(workers);
            let (mut fwd, mut dw) = (vec![0.0f32; x.len()], vec![0.0f32; edges]);
            backend.banded_aggregate(&band, &x, dim, &weights, &par, &mut fwd);
            backend.banded_weight_grad(&band, &x, &d_out, dim, edges, &par, &mut dw);
            assert_eq!(
                fnv1a(&fwd, &dw),
                0xa27e_1a56_a651_819d,
                "{} tier, {} lanes, workers={workers}",
                backend.tier(),
                backend.lane_width()
            );
        }
    }
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
        (n, graph_seed) in (2usize..60, 0u64..1000),
        (window, policy, seed) in (1usize..5, 0usize..3, 0u64..100),
        dim in (0..DIMS.len()).prop_map(|i| DIMS[i]),
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
