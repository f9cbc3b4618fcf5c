//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), so a spread computed here is the spread
//! the PR driver computes from the same values.

/// Quantile `q` under the exclusive method: position `q·(n+1)` in 1-based
/// order statistics, interpolated between its two neighbours (and
/// extrapolated from the outermost pair when the position falls outside).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - lo as f64;
    sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty slice (a layer that recorded nothing).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values), 0.5)
}

/// The `p`-th percentile (`0 < p < 100`); 0 for an empty slice.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values), p / 100.0)
}

/// Median, quartiles and sample count of one metric over rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    pub(crate) median: f64,
    pub(crate) q1: f64,
    pub(crate) q3: f64,
    pub(crate) n: usize,
}

/// Interquartile distance as a share of the median (0 when the median is
/// 0 or there are fewer than two samples): the spread the PR driver holds
/// against a metric's bound.
pub(crate) fn spread(median: f64, q1: f64, q3: f64, n: usize) -> f64 {
    if n < 2 || median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// Summarizes `values`; `None` when empty.
pub(crate) fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values);
    Some(Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        n: s.len(),
    })
}

/// Percentiles a tail may be reported at, highest first, in tenths of a
/// percent (integers, so "ten samples beyond" is decided exactly).
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, with its value; `None` below 40 samples (even p75
/// would rest on fewer than ten).
pub(crate) fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let permille = TAIL_LADDER
        .into_iter()
        .find(|p| values.len() * (1000 - p) >= 10_000)?;
    let p = permille as f64 / 10.0;
    Some((p, percentile(values, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert!((spread(s.median, s.q1, s.q3, s.n) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: with two
        // samples the outer quartiles extrapolate past the ends.
        let s = summarize(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_zero_without_a_distribution() {
        assert_eq!(spread(4.0, 4.0, 4.0, 1), 0.0);
        assert_eq!(spread(0.0, 0.0, 0.0, 3), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(39)), None);
        assert_eq!(tail(&v(40)).unwrap().0, 75.0);
        assert_eq!(tail(&v(99)).unwrap().0, 75.0);
        assert_eq!(tail(&v(100)).unwrap().0, 90.0);
        assert_eq!(tail(&v(200)).unwrap().0, 95.0);
        assert_eq!(tail(&v(1000)).unwrap().0, 99.0);
        assert_eq!(tail(&v(10_000)).unwrap().0, 99.9);
    }
}
