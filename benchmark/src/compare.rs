//! `--compare A.json B.json`: applies each end-to-end metric's bound, per
//! workload, to two suite results (A the parent, B the change), row by row.

use crate::spec::Better;
use crate::suite::{EndToEnd, Results, WorkloadResult};

/// The verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Every run of B reads better than every run of A, or B's median is
    /// better by more than the wider of the two interquartile spreads.
    Better,
    /// No worse than the bound, and not clearly better.
    Same,
    /// Every run of B reads worse than every run of A, or B's median is
    /// worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of A or B is wider than the bound, and the
    /// runs overlap: the rows can show neither a regression nor its absence.
    Unresolved,
}

fn spread(m: &EndToEnd) -> f64 {
    crate::stats::spread(m.median, m.q1, m.q3, m.n)
}

/// Compares one metric of one workload.
pub(crate) fn judge(a: &EndToEnd, b: &EndToEnd) -> Verdict {
    // Positive = B is worse, as a share of A's median.
    let worse_by = match a.better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let beats = |x: f64, y: f64| match a.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let separated = |wins: &dyn Fn(f64, f64) -> bool| {
        !a.values.is_empty()
            && !b.values.is_empty()
            && b.values
                .iter()
                .all(|&x| a.values.iter().all(|&y| wins(x, y)))
    };
    if separated(&|x, y| beats(x, y)) {
        Verdict::Better
    } else if separated(&|x, y| beats(y, x)) {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > a.bound {
        Verdict::Unresolved
    } else if worse_by > a.bound {
        Verdict::Worse
    } else if -worse_by > spread(a).max(spread(b)) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Units whose per-layer values are exact counts, expected to repeat bit
/// for bit between two runs of the same commit and seed.
const EXACT_UNITS: [&str; 3] = ["count", "B", "flop"];

/// Prints one workload's rows; returns `(worse, unresolved)` row counts.
fn compare_workload(a: &WorkloadResult, b: &WorkloadResult) -> (usize, usize) {
    let mut worse = 0;
    let mut unresolved = 0;
    for ma in &a.end_to_end {
        let Some(mb) = b.end_to_end.iter().find(|m| m.name == ma.name) else {
            mega_obs::data!("  {:<24} missing in B", ma.name);
            continue;
        };
        let verdict = judge(ma, mb);
        worse += usize::from(verdict == Verdict::Worse);
        unresolved += usize::from(verdict == Verdict::Unresolved);
        mega_obs::data!(
            "  {:<24} {:>14.4} -> {:>14.4} {:<8} {:>+7.1}%  spread A {:>4.1}% B {:>4.1}%  bound {:>4.1}%  {:?}",
            ma.name,
            ma.median,
            mb.median,
            ma.unit,
            (mb.median - ma.median) / ma.median.abs() * 100.0,
            spread(ma) * 100.0,
            spread(mb) * 100.0,
            ma.bound * 100.0,
            verdict
        );
    }
    // Any increase of the failed share is a regression (its bound is 0).
    let failed_worse = b.failed_share > a.failed_share;
    worse += usize::from(failed_worse);
    mega_obs::data!(
        "  {:<24} {:>14.6} -> {:>14.6} {:<8} {}",
        "failed_share",
        a.failed_share,
        b.failed_share,
        "ratio",
        if failed_worse { "Worse" } else { "Same" }
    );
    if a.loss_trajectory_hash != b.loss_trajectory_hash {
        mega_obs::data!(
            "  loss_trajectory_hash changed: {:?} -> {:?} (arithmetic or seed differs)",
            a.loss_trajectory_hash,
            b.loss_trajectory_hash
        );
    }
    for la in a
        .per_layer
        .iter()
        .filter(|m| EXACT_UNITS.contains(&m.unit.as_str()))
    {
        if let Some(lb) = b.per_layer.iter().find(|m| m.name == la.name) {
            if la.value.to_bits() != lb.value.to_bits() {
                mega_obs::data!(
                    "  exact count changed: {:<36} {} -> {}",
                    la.name,
                    la.value,
                    lb.value
                );
            }
        }
    }
    (worse, unresolved)
}

/// Prints the comparison; `Ok(false)` (exit 1) when any row is worse.
pub(crate) fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.check || b.check {
        mega_obs::data!("note: a --check result is being compared; its inputs are tiny");
    }
    if (a.seed, a.rounds) != (b.seed, b.rounds) || a.host.nproc != b.host.nproc {
        mega_obs::data!(
            "note: A is seed {} x {} rounds on {} core(s), B is seed {} x {} rounds on {} core(s)",
            a.seed,
            a.rounds,
            a.host.nproc,
            b.seed,
            b.rounds,
            b.host.nproc
        );
    }
    let (mut worse, mut unresolved) = (0, 0);
    for wa in &a.workloads {
        mega_obs::data!("== {} ==", wa.name);
        match b.workloads.iter().find(|w| w.name == wa.name) {
            Some(wb) if wa.status == "ok" && wb.status == "ok" => {
                let (w, u) = compare_workload(wa, wb);
                worse += w;
                unresolved += u;
            }
            Some(wb) => mega_obs::data!("  not compared: A is {}, B is {}", wa.status, wb.status),
            None => mega_obs::data!("  missing in B"),
        }
    }
    mega_obs::data!("{worse} row(s) worse, {unresolved} unresolved (spread wider than the bound)");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, values: &[f64]) -> EndToEnd {
        let s = crate::stats::summarize(values).unwrap();
        EndToEnd {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: 0.10,
            median: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
            samples: 0,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = metric(Better::Lower, &[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(
                &a,
                &metric(Better::Lower, &[100.2, 101.1, 99.3, 100.4, 99.8])
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(
                &a,
                &metric(Better::Lower, &[120.0, 121.0, 119.0, 120.5, 119.5])
            ),
            Verdict::Worse
        );
        // Worse by more than the bound, runs overlapping, spread within it.
        assert_eq!(
            judge(
                &a,
                &metric(Better::Lower, &[112.0, 113.0, 100.8, 112.5, 111.5])
            ),
            Verdict::Worse
        );
        // The same median shift under a wide spread proves nothing.
        assert_eq!(
            judge(
                &a,
                &metric(Better::Lower, &[112.0, 150.0, 100.8, 140.0, 90.0])
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&a, &metric(Better::Lower, &[90.0, 91.0, 89.0, 90.5, 89.5])),
            Verdict::Better
        );
        // Wide spread, medians close: nothing can be said.
        assert_eq!(
            judge(
                &a,
                &metric(Better::Lower, &[80.0, 125.0, 99.0, 130.0, 101.0])
            ),
            Verdict::Unresolved
        );
        // Higher-is-better flips the direction.
        let t = metric(Better::Higher, &[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(&t, &metric(Better::Higher, &[80.0, 81.0, 79.0, 80.5, 79.5])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&t, &metric(Better::Higher, &[120.0, 121.0, 119.0])),
            Verdict::Better
        );
    }
}
