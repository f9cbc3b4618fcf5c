//! The threaded GEMM must not create pool traffic: worker scratch is a
//! direct `&mut` slice of the output buffer (see `mega-exec`'s partition
//! module), never a pooled allocation, so the tape's buffer-pool telemetry
//! is *identical* whatever the thread count. A hit/miss delta between
//! thread budgets would mean per-worker buffers started round-tripping
//! through the shared pool on the hot path — exactly the contention this
//! test exists to keep out.

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
fn pool_traffic_is_thread_count_invariant() {
    // Shapes past the 1 << 17 flop cutoff so the pinned runs actually fan
    // out in forward and both backward products.
    let mut rng = StdRng::seed_from_u64(23);
    let a = Tensor::from_vec(128, 64, random_vec(&mut rng, 128 * 64));
    let b = Tensor::from_vec(64, 64, random_vec(&mut rng, 64 * 64));

    let backends: Vec<(&str, Arc<dyn Backend>)> = vec![
        ("reference", Arc::new(ReferenceBackend)),
        ("simd", Arc::new(SimdBackend::new())),
    ];
    for (name, backend) in backends {
        let traffic = |threads: usize| -> (u64, u64) {
            let pool = Arc::new(BufferPool::new());
            let mut tape = Tape::with_exec(backend.clone(), pool.clone());
            tape.set_parallelism(Parallelism::pinned(threads));
            let va = tape.leaf(a.clone());
            let vb = tape.leaf(b.clone());
            let prod = tape.matmul(va, vb);
            let loss = tape.sum(prod);
            let _ = tape.backward(loss);
            (pool.hits(), pool.misses())
        };
        let serial = traffic(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                traffic(threads),
                serial,
                "{name}: pool hit/miss counts changed between threads=1 and \
                 threads={threads} — per-worker scratch is leaking through \
                 the shared pool"
            );
        }
    }
}
