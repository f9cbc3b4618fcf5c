//! Concurrency stress for [`BufferPool`]: the freelist and its telemetry
//! must stay coherent under simultaneous acquire/release from the thread
//! counts the intra-op GEMM actually runs.
//!
//! Lives in its own integration-test binary (= its own process) so the
//! global `mega_obs` state exercised by `pool_telemetry.rs` cannot
//! interleave with the counter asserts here.

use mega_exec::BufferPool;
use std::sync::Arc;
use std::thread;

const THREADS: usize = 4;
const CYCLES: usize = 500;
/// Size classes each thread rotates through: 16, 32, 64, 128 elements.
const CLASSES: usize = 4;

/// Runs `THREADS` threads for `CYCLES` cycles; each cycle acquires `held`
/// buffers of consecutive classes (phase-shifted per thread, so threads
/// contend on the same classes out of step), then releases them. Returns
/// the pool and the number of acquires.
fn stress(held: usize) -> (Arc<BufferPool>, u64) {
    let pool = Arc::new(BufferPool::new());
    thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            s.spawn(move || {
                for i in 0..CYCLES {
                    let bufs: Vec<Vec<f32>> = (0..held)
                        .map(|j| {
                            let len = 16usize << ((t + i + j) % CLASSES);
                            let buf = pool.acquire(len);
                            assert_eq!(buf.len(), len);
                            // Zeroing is the pool's visibility contract: a
                            // dirty recycled buffer here would mean one
                            // thread observed another's released contents.
                            assert!(
                                buf.iter().all(|&v| v == 0.0),
                                "thread {t} cycle {i}: recycled buffer not zeroed"
                            );
                            buf
                        })
                        .collect();
                    for mut buf in bufs {
                        buf.iter_mut().for_each(|v| *v = t as f32 + 1.0);
                        pool.release(buf);
                    }
                }
            });
        }
    });
    let acquires = (THREADS * CYCLES * held) as u64;
    // Every acquire was exactly one hit or one miss — no drops, no double
    // counts under contention.
    assert_eq!(pool.hits() + pool.misses(), acquires);
    // Parked bytes stay within twice the peak outstanding (at most every
    // thread's `held` buffers of 144 elements, the class above 128) plus one
    // buffer per class.
    let all_classes: usize = (0..CLASSES).map(|c| 18 << c).sum();
    let bound = 4 * (2 * THREADS * held * 144 + all_classes) as u64;
    let resident = pool.resident_bytes();
    assert!(resident <= bound, "{resident} parked bytes > {bound}");
    (pool, acquires)
}

/// The rotating pattern below on one thread, where it is deterministic:
/// after the first round every acquire hits. The doubling sizes fit in the
/// byte budget; the buffers five neighbouring classes share (72, 88 and 104
/// elements) do not, and the rule that an empty class always parks one
/// buffer keeps them hitting.
#[test]
fn a_lone_buffer_rotating_through_classes_always_hits() {
    for sizes in [&[16, 32, 64, 128][..], &[64, 72, 80, 88, 96]] {
        let pool = BufferPool::new();
        let round = || {
            for &len in sizes {
                pool.release(pool.acquire(len));
            }
        };
        round();
        let first = pool.misses();
        (0..9).for_each(|_| round());
        assert_eq!(pool.misses(), first, "{sizes:?}");
        assert_eq!(pool.hits() + pool.misses(), 10 * sizes.len() as u64);
    }
}

/// One buffer per cycle per thread, the sizes rotating, threads out of
/// step: a class can have every thread's buffer out at once, which the
/// byte budget (twice the peak outstanding) leaves room to park.
#[test]
fn concurrent_acquire_release_keeps_counters_consistent() {
    let (pool, _) = stress(1);
    // Steady state: with at most THREADS buffers checked out per class at
    // any instant, the freelist warms up and almost every acquire after the
    // first few cycles is a hit.
    assert!(
        pool.hits() >= (THREADS * (CYCLES - 2 * THREADS)) as u64,
        "freelist failed to warm up: {} hits / {} misses",
        pool.hits(),
        pool.misses()
    );
}

/// All four classes held at once: the byte budget covers the set.
#[test]
fn concurrent_held_sets_keep_counters_consistent() {
    let (pool, acquires) = stress(CLASSES);
    // Once the threads have overlapped, every class holds a buffer per
    // thread and almost every acquire is a hit.
    assert!(
        pool.hits() >= acquires - (2 * THREADS * THREADS * CLASSES) as u64,
        "freelist failed to warm up: {} hits / {} misses",
        pool.hits(),
        pool.misses()
    );
}
