//! Parallel per-graph preprocessing for a batch of samples.

use mega_core::parallel::{self, Parallelism};
use mega_core::{preprocess, AttentionSchedule, MegaConfig, MegaError};
use mega_datasets::GraphSample;

/// Preprocesses every sample of a batch, fanning the independent per-graph
/// traversals out across the thread budget of `par`.
///
/// Results are collected in sample order, so the output is identical to a
/// serial `samples.iter().map(preprocess)` for every thread count; on
/// failure the error of the lowest-indexed failing sample is returned.
///
/// # Errors
///
/// Propagates the first [`MegaError`] (by sample index) from preprocessing.
pub fn preprocess_samples(
    samples: &[GraphSample],
    config: &MegaConfig,
    par: &Parallelism,
) -> Result<Vec<AttentionSchedule>, MegaError> {
    parallel::ordered_map(samples, par.effective_threads(), |_, s| {
        preprocess(&s.graph, config)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_datasets::{zinc, DatasetSpec};

    fn samples() -> Vec<GraphSample> {
        zinc(&DatasetSpec::tiny(5))
            .train
            .into_iter()
            .take(6)
            .collect()
    }

    #[test]
    fn parallel_preprocess_matches_serial() {
        let ss = samples();
        let cfg = MegaConfig::default();
        let serial: Vec<_> = ss
            .iter()
            .map(|s| preprocess(&s.graph, &cfg).unwrap())
            .collect();
        for threads in [1, 2, 4] {
            let par = Parallelism::pinned(threads);
            let fanned = preprocess_samples(&ss, &cfg, &par).unwrap();
            assert_eq!(fanned.len(), serial.len());
            for (a, b) in fanned.iter().zip(&serial) {
                assert_eq!(a.path().nodes(), b.path().nodes(), "threads={threads}");
                assert_eq!(a.band().window(), b.band().window());
            }
        }
    }
}
