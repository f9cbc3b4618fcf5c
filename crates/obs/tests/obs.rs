//! Property-style tests of the histogram percentile guarantee against a
//! sorted-vec oracle: for every recorded distribution and quantile, the
//! reported percentile `p` and the exact rank value `e` satisfy
//! `e ≤ p ≤ 2·max(e, 1)`.
//!
//! No external dependency: a seeded xorshift generator supplies the random
//! distributions, so the test is deterministic.

use mega_obs::Histogram;

/// Deterministic xorshift64* stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn check_against_oracle(samples: &[u64]) {
    let mut h = Histogram::new();
    let mut sorted = samples.to_vec();
    for &v in samples {
        h.record(v);
    }
    sorted.sort_unstable();
    assert_eq!(h.count(), samples.len() as u64);
    for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let approx = h.percentile(q);
        assert!(
            approx >= exact,
            "q={q}: approx {approx} below exact {exact} (n={})",
            sorted.len()
        );
        assert!(
            approx <= 2 * exact.max(1),
            "q={q}: approx {approx} above 2x exact {exact} (n={})",
            sorted.len()
        );
    }
}

#[test]
fn percentiles_match_sorted_oracle_uniform() {
    for seed in 1..=8u64 {
        let mut rng = XorShift(seed);
        let samples: Vec<u64> = (0..4096).map(|_| rng.next() % 1_000_000).collect();
        check_against_oracle(&samples);
    }
}

#[test]
fn percentiles_match_sorted_oracle_skewed() {
    // Heavy-tailed: mostly tiny values with rare large outliers — the
    // regime timing histograms actually see.
    for seed in 11..=14u64 {
        let mut rng = XorShift(seed);
        let samples: Vec<u64> = (0..4096)
            .map(|_| {
                let v = rng.next();
                if v.is_multiple_of(100) {
                    v % 1_000_000_000
                } else {
                    v % 64
                }
            })
            .collect();
        check_against_oracle(&samples);
    }
}

/// The deterministic sample stream thread `t` records (disjoint ranges per
/// thread so the union multiset is easy to reproduce serially).
fn thread_stream(t: u64) -> Vec<u64> {
    let mut rng = XorShift(t * 7919 + 1);
    (0..2048).map(|_| rng.next() % 1_000_000).collect()
}

#[test]
fn percentile_bounds_hold_under_registry_contention() {
    const THREADS: u64 = 8;
    // All workers hammer the same named histogram in the global registry
    // concurrently; the mutex serializes bucket increments, so counts must
    // be exact and the percentile guarantee must survive any interleaving.
    mega_obs::reset();
    mega_obs::set_enabled(true);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for v in thread_stream(t) {
                    mega_obs::record_value("contended.values", v);
                }
            });
        }
    });
    mega_obs::set_enabled(false);
    let snap = mega_obs::snapshot();
    let (_, summary) = snap
        .values
        .iter()
        .find(|(n, _)| n == "contended.values")
        .expect("contended histogram recorded")
        .clone();
    let mut union: Vec<u64> = (0..THREADS).flat_map(thread_stream).collect();
    union.sort_unstable();
    assert_eq!(
        summary.count,
        union.len() as u64,
        "lost samples under contention"
    );
    assert_eq!(summary.sum, union.iter().sum::<u64>());
    for (q, p) in [
        (0.50, summary.p50),
        (0.90, summary.p90),
        (0.99, summary.p99),
    ] {
        let rank = ((q * union.len() as f64).ceil() as usize).clamp(1, union.len());
        let exact = union[rank - 1];
        assert!(p >= exact, "q={q}: {p} below exact {exact}");
        assert!(p <= 2 * exact.max(1), "q={q}: {p} above 2x exact {exact}");
    }
    mega_obs::reset();
}

#[test]
fn percentiles_exact_on_powers_of_two_and_zero() {
    let mut h = Histogram::new();
    for _ in 0..10 {
        h.record(0);
    }
    assert_eq!(h.percentile(0.5), 0);
    let mut h = Histogram::new();
    for _ in 0..10 {
        h.record(64);
    }
    // 64 lands in bucket [64, 128); the upper bound is 127.
    assert!(h.percentile(0.5) >= 64 && h.percentile(0.5) < 128);
}
