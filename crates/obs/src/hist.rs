//! Fixed log-scale histograms with approximate percentiles.
//!
//! Buckets are powers of two: bucket 0 holds the value 0 and bucket `k ≥ 1`
//! holds `[2^(k-1), 2^k)`. Recording is O(1) and allocation-free; percentile
//! queries return the *upper bound* of the bucket containing the requested
//! rank, so the reported percentile `p` always satisfies
//! `exact ≤ p < 2 · exact` (and `p == exact` for powers of two and zero).
//! That two-sided bound is property-tested against a sorted-vec oracle in
//! `tests/obs.rs`.

/// Number of buckets: the zero bucket plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-size power-of-two histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// Bucket index of a sample: 0 for 0, otherwise `64 - leading_zeros`.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (largest sample it can hold).
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket counts, index 0 first.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The approximate `q`-quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket holding the sample of rank `ceil(q · count)`. Returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Shorthand for the median / tail percentiles reported in snapshots.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn percentile_bound_holds() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Exact p50 is 500; the reported value is the bucket upper bound.
        let p50 = h.p50();
        assert!((500..1000).contains(&p50), "p50 {p50}");
        assert!(h.p99() >= 990);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }
}
