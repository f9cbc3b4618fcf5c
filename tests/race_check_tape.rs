//! Race-check coverage for the autograd tape's parallel matmuls.
//!
//! The GEMM shadow writer map (see `crates/exec/tests/race_check.rs` for
//! the tests proving it *fires* on corrupt partitions) sits inside the
//! backend drivers, so every matmul the tape issues — forward products and
//! both backward-pass products — runs with row-ownership checking armed
//! when the `race-check` feature is on. This harness drives full
//! forward+backward passes through each backend at pinned thread counts
//! with shapes past the parallel flop cutoff, proving (a) the instrumented
//! tape path completes without an overlap or coverage panic and (b) losses
//! and gradients stay bit-identical to the single-thread run — the checked
//! ownership proof, extended from raw kernels to the tape.

#![cfg(feature = "race-check")]

use mega::core::parallel::Parallelism;
use mega::exec::{Backend, BufferPool, ReferenceBackend, SimdBackend};
use mega::tensor::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

#[test]
fn tape_matmuls_race_checked_and_bit_identical_across_backends() {
    // 128×64 · 64×64: forward and both backward products all exceed the
    // 1 << 17 multiply-add cutoff, so every one fans out when pinned.
    let mut rng = StdRng::seed_from_u64(17);
    let a = Tensor::from_vec(128, 64, random_vec(&mut rng, 128 * 64));
    let b = Tensor::from_vec(64, 64, random_vec(&mut rng, 64 * 64));

    let backends: Vec<(&str, Arc<dyn Backend>)> = vec![
        ("reference", Arc::new(ReferenceBackend)),
        ("simd", Arc::new(SimdBackend::new())),
    ];
    for (name, backend) in backends {
        let run = |threads: usize| {
            let mut tape = Tape::with_exec(backend.clone(), Arc::new(BufferPool::new()));
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
        for threads in [2usize, 4] {
            let (l, ga, gb) = run(threads);
            assert_eq!(l.to_bits(), l1.to_bits(), "{name} loss, threads={threads}");
            for (x, y) in ga.iter().zip(&ga1) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} grad a, threads={threads}");
            }
            for (x, y) in gb.iter().zip(&gb1) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} grad b, threads={threads}");
            }
        }
    }
}
