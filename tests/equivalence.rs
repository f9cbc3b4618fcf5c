//! Serial/parallel equivalence harness for the band-execution engine.
//!
//! Two families of guarantees:
//!
//! 1. **Exactness** — banded aggregation over the path layout computes the
//!    same weighted 1-hop aggregation as dense masked attention over the
//!    path positions (the band mask *is* the adjacency, relocated).
//! 2. **Determinism** — the chunked parallel engine is bit-identical to the
//!    serial kernel for every thread count and chunk size, because chunks
//!    own disjoint output rows and fold contributions in serial slot order.

use mega::core::parallel::{ChunkPlan, Parallelism};
use mega::core::{preprocess, traverse, traverse_parallel, MegaConfig};
use mega::datasets::{zinc, DatasetSpec};
use mega::exec::kernels::{
    banded_aggregate, banded_aggregate_serial, banded_aggregate_with_plan, banded_weight_grad,
    banded_weight_grad_serial, banded_weight_grad_with_plan, BandLanes,
};
use mega::graph::generate;
use mega::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 9;

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Weights bounded away from zero so the dense reference's zero-skipping
/// matmul and the band kernel see exactly the same contribution set.
fn random_weights(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(0.1f32..1.0)).collect()
}

/// Banded aggregation equals dense masked attention: materialize the band
/// as a dense `L × L` symmetric weight matrix (zero outside the mask) and
/// compare `A · x` against the band kernel.
#[test]
fn banded_aggregation_equals_dense_masked_attention() {
    let mut rng = StdRng::seed_from_u64(101);
    let ds = zinc(&DatasetSpec::tiny(3));
    let mut graphs: Vec<_> = ds.train.iter().take(6).map(|s| s.graph.clone()).collect();
    graphs.push(generate::erdos_renyi(60, 0.08, &mut rng).unwrap());
    graphs.push(generate::barabasi_albert(80, 3, &mut rng).unwrap());
    for g in &graphs {
        let sched = preprocess(g, &MegaConfig::default()).unwrap();
        let band = sched.band();
        let len = band.len();
        let weights = random_weights(&mut rng, sched.working_graph().edge_count());
        let x = random_vec(&mut rng, len * DIM);

        let mut dense = Tensor::zeros(len, len);
        for slot in band.active_slots() {
            dense.set(slot.lo, slot.hi, weights[slot.edge]);
            dense.set(slot.hi, slot.lo, weights[slot.edge]);
        }
        let xt = Tensor::from_vec(len, DIM, x.clone());
        let reference = dense.matmul(&xt);

        let mut banded = vec![0.0f32; x.len()];
        banded_aggregate_serial(BandLanes::SCALAR, band, &x, DIM, &weights, &mut banded);
        for (i, (a, b)) in banded.iter().zip(reference.as_slice()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                "row {} lane {}: banded {a} vs dense {b}",
                i / DIM,
                i % DIM
            );
        }
    }
}

/// The chunked parallel engine is bit-for-bit identical to the serial
/// kernel across thread counts {1, 2, 4, 8} (the public entry points) and
/// chunk sizes {ω, 4ω, n} (explicit plans) — forward aggregation and the
/// weight gradient.
#[test]
fn parallel_chunked_bit_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(7);
    let graphs = [
        generate::barabasi_albert(500, 3, &mut rng).unwrap(),
        generate::erdos_renyi(300, 0.03, &mut rng).unwrap(),
    ];
    for g in &graphs {
        let sched = preprocess(g, &MegaConfig::default()).unwrap();
        let band = sched.band();
        let (len, omega) = (band.len(), band.window());
        let edges = sched.working_graph().edge_count();
        let x = random_vec(&mut rng, len * DIM);
        let d_out = random_vec(&mut rng, len * DIM);
        let weights = random_weights(&mut rng, edges);

        let zeroed = || (vec![0.0f32; x.len()], vec![0.0f32; edges]);
        let (mut fwd_serial, mut dw_serial) = zeroed();
        banded_aggregate_serial(BandLanes::SCALAR, band, &x, DIM, &weights, &mut fwd_serial);
        banded_weight_grad_serial(BandLanes::SCALAR, band, &x, &d_out, DIM, &mut dw_serial);
        let check = |what: String, fwd: &[f32], dw: &[f32]| {
            assert_eq!(fwd.len(), fwd_serial.len());
            for (a, b) in fwd.iter().zip(&fwd_serial) {
                assert_eq!(a.to_bits(), b.to_bits(), "forward, {what}");
            }
            for (a, b) in dw.iter().zip(&dw_serial) {
                assert_eq!(a.to_bits(), b.to_bits(), "dw, {what}");
            }
        };
        for threads in [1usize, 2, 4, 8] {
            let par = Parallelism::pinned(threads);
            let (mut fwd, mut dw) = zeroed();
            banded_aggregate(BandLanes::SCALAR, band, &x, DIM, &weights, &par, &mut fwd);
            banded_weight_grad(BandLanes::SCALAR, band, &x, &d_out, DIM, &par, &mut dw);
            check(format!("threads={threads}"), &fwd, &dw);
        }
        for chunk in [omega, 4 * omega, len] {
            let plan = ChunkPlan::build(len, omega, chunk);
            let (mut fwd, mut dw) = zeroed();
            banded_aggregate_with_plan(BandLanes::SCALAR, band, &x, DIM, &weights, &plan, &mut fwd);
            banded_weight_grad_with_plan(BandLanes::SCALAR, band, &x, &d_out, DIM, &plan, &mut dw);
            check(format!("chunk={chunk}"), &fwd, &dw);
        }
    }
}

/// Multi-agent parallel traversal produces the same stitched path for every
/// thread count (the agent partition, not the pool size, fixes the output).
#[test]
fn parallel_traversal_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(29);
    let g = generate::barabasi_albert(400, 3, &mut rng).unwrap();
    let cfg = MegaConfig::default();
    let reference = traverse_parallel(&g, &cfg, 4, &Parallelism::with_threads(1)).unwrap();
    for threads in [2usize, 4, 8] {
        let t = traverse_parallel(&g, &cfg, 4, &Parallelism::pinned(threads)).unwrap();
        assert_eq!(t.path, reference.path, "threads={threads}");
        assert_eq!(t.revisits, reference.revisits);
    }
    // And one agent degenerates to the serial traversal exactly.
    let serial = traverse(&g, &cfg).unwrap();
    let one = traverse_parallel(&g, &cfg, 1, &Parallelism::pinned(4)).unwrap();
    assert_eq!(one.path, serial.path);
}

/// The autograd tape's parallel matmul keeps losses and gradients
/// bit-identical across thread budgets.
#[test]
fn tape_parallelism_bit_identical_gradients() {
    let mut rng = StdRng::seed_from_u64(5);
    let a = Tensor::from_vec(40, 33, random_vec(&mut rng, 40 * 33));
    let b = Tensor::from_vec(33, 21, random_vec(&mut rng, 33 * 21));

    let run = |threads: usize| {
        let mut tape = mega::tensor::Tape::new();
        tape.set_parallelism(Parallelism::pinned(threads));
        let va = tape.leaf(a.clone());
        let vb = tape.leaf(b.clone());
        let prod = tape.matmul(va, vb);
        let loss = tape.sum(prod);
        let grads = tape.backward(loss);
        (
            tape.value(loss).at(0, 0),
            grads.wrt(va).as_slice().to_vec(),
            grads.wrt(vb).as_slice().to_vec(),
        )
    };

    let (l1, ga1, gb1) = run(1);
    for threads in [2usize, 4, 8] {
        let (l, ga, gb) = run(threads);
        assert_eq!(l.to_bits(), l1.to_bits(), "loss, threads={threads}");
        for (x, y) in ga.iter().zip(&ga1) {
            assert_eq!(x.to_bits(), y.to_bits(), "grad a, threads={threads}");
        }
        for (x, y) in gb.iter().zip(&gb1) {
            assert_eq!(x.to_bits(), y.to_bits(), "grad b, threads={threads}");
        }
    }
}
