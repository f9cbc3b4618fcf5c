//! Integration test: [`BufferPool`] telemetry lines up with the observability
//! layer.
//!
//! The pool counts hits and misses twice — once in its own atomics (always)
//! and once as `exec.pool.hits` / `exec.pool.misses` counters in `mega_obs`
//! (only while tracing is enabled). This test drives a scripted
//! acquire/release sequence with a known hit/miss pattern and asserts the two
//! views agree, and that counters stop accumulating once tracing is disabled.
//!
//! `mega_obs` state is process-global, so everything lives in a single `#[test]`
//! to avoid cross-test interference under the parallel test runner.

use mega_exec::BufferPool;

/// Counter value from the current snapshot, 0 when absent.
fn obs_counter(name: &str) -> u64 {
    mega_obs::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn pool_counters_mirror_obs_counters() {
    mega_obs::reset();
    mega_obs::set_enabled(true);

    let pool = BufferPool::new();

    // Script: three cold acquires (all misses — the pool starts empty) ...
    let a = pool.acquire(64);
    let _b = pool.acquire(64);
    let c = pool.acquire(200);
    assert_eq!(pool.hits(), 0);
    assert_eq!(pool.misses(), 3);

    // ... return two of them ...
    pool.release(a); // parks in class 72, one above the request's 64
    pool.release(c); // parks in class 224, one above the request's 208

    // ... then re-acquire shapes the freelist can serve (hits) and one it
    // cannot (miss: class 72 empty again after the hit drains it).
    let d = pool.acquire(62); // class 64 request <- recycled `a`: hit
    assert_eq!(pool.hits(), 1);
    let _e = pool.acquire(64); // classes 64..=80 empty: miss
    assert_eq!(pool.misses(), 4);

    // The obs counters must tell exactly the same story as the pool's own
    // telemetry accessors.
    assert_eq!(obs_counter("exec.pool.hits"), pool.hits());
    assert_eq!(obs_counter("exec.pool.misses"), pool.misses());
    assert_eq!(obs_counter("exec.pool.hits"), 1);
    assert_eq!(obs_counter("exec.pool.misses"), 4);

    // With tracing disabled the pool keeps counting internally but stops
    // emitting to the obs layer.
    mega_obs::set_enabled(false);
    pool.release(d);
    let _f = pool.acquire(32); // class 32 is empty: internal miss
    let _g = pool.acquire(64); // served by recycled `d`: internal hit
    assert_eq!(pool.hits(), 2);
    assert_eq!(pool.misses(), 5);
    assert_eq!(
        obs_counter("exec.pool.hits"),
        1,
        "no emission while disabled"
    );
    assert_eq!(
        obs_counter("exec.pool.misses"),
        4,
        "no emission while disabled"
    );

    // Re-enabling resumes emission from where the obs counters left off.
    mega_obs::set_enabled(true);
    let _h = pool.acquire(1024); // miss
    assert_eq!(pool.misses(), 6);
    assert_eq!(obs_counter("exec.pool.misses"), 5);

    mega_obs::set_enabled(false);
    mega_obs::reset();
}
