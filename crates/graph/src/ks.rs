//! Two-sample Kolmogorov–Smirnov test.
//!
//! The paper (§III, Table III) runs a KS test on per-graph degree
//! distributions and reports a similarity `μ(ε)` whose proximity to 1
//! "signifies a high degree of similarity among the distributions". We expose
//! both the classic KS statistic `D` (the supremum distance between empirical
//! CDFs) and the derived similarity `1 - D`.

/// The two-sample KS statistic `D = sup_x |F_a(x) - F_b(x)|`.
///
/// Returns 0.0 when both samples are empty, 1.0 when exactly one is empty.
///
/// # Example
///
/// ```
/// use mega_graph::ks;
///
/// let a = [1.0, 2.0, 3.0];
/// let d = ks::statistic(&a, &a);
/// assert!(d.abs() < 1e-12);
/// ```
pub fn statistic(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let mut xa: Vec<f64> = a.to_vec();
    let mut xb: Vec<f64> = b.to_vec();
    xa.sort_by(|p, q| p.partial_cmp(q).expect("NaN in KS sample"));
    xb.sort_by(|p, q| p.partial_cmp(q).expect("NaN in KS sample"));
    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xa.len() && j < xb.len() {
        let x = xa[i].min(xb[j]);
        while i < xa.len() && xa[i] <= x {
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na;
        let fb = j as f64 / nb;
        d = d.max((fa - fb).abs());
    }
    d
}

/// KS similarity `ε = 1 - D`; 1 means the empirical distributions coincide.
pub fn similarity(a: &[f64], b: &[f64]) -> f64 {
    1.0 - statistic(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_have_zero_statistic() {
        let a = [2.0, 2.0, 3.0, 4.0];
        assert!(statistic(&a, &a).abs() < 1e-12);
        assert!((similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0];
        let b = [10.0, 11.0];
        assert!((statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_half_overlap() {
        // F_a jumps at 1,2 ; F_b jumps at 2,3. At x in [2,3): F_a=1, F_b=0.5.
        let a = [1.0, 2.0];
        let b = [2.0, 3.0];
        assert!((statistic(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn statistic_is_symmetric() {
        let a = [1.0, 5.0, 7.0, 9.0];
        let b = [2.0, 5.0, 6.0];
        assert!((statistic(&a, &b) - statistic(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_conventions() {
        assert_eq!(statistic(&[], &[]), 0.0);
        assert_eq!(statistic(&[1.0], &[]), 1.0);
    }
}
