//! Parallel per-graph preprocessing for a batch of samples.

use mega_core::parallel::{self, Parallelism};
use mega_core::{preprocess, AttentionSchedule, MegaConfig, MegaError};
use mega_datasets::GraphSample;
use mega_graph::GraphError;

/// Preprocesses every sample of a batch, fanning the independent per-graph
/// traversals out across the thread budget of `par`.
///
/// Results are collected in sample order, so the output is identical to a
/// serial `samples.iter().map(preprocess)` for every thread count; on
/// failure the error of the lowest-indexed failing sample is returned.
///
/// The samples must be undirected: a MEGA batch sends two messages per band
/// slot, one each way, where the baseline sends one per stored arc, so on a
/// directed graph the two engines would train different models.
///
/// # Errors
///
/// Returns [`MegaError::Graph`] holding [`GraphError::InvalidParameter`] for
/// a directed sample, and otherwise propagates the first [`MegaError`] (by
/// sample index) from preprocessing.
pub fn preprocess_samples(
    samples: &[GraphSample],
    config: &MegaConfig,
    par: &Parallelism,
) -> Result<Vec<AttentionSchedule>, MegaError> {
    parallel::ordered_map(samples, par.effective_threads(), |i, s| {
        if !s.graph.is_undirected() {
            return Err(MegaError::Graph(GraphError::InvalidParameter {
                name: "graph",
                reason: format!("sample {i} is directed; MEGA training needs undirected graphs"),
            }));
        }
        preprocess(&s.graph, config)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_datasets::{zinc, DatasetSpec, Target};
    use mega_graph::GraphBuilder;

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

    #[test]
    fn directed_samples_are_refused() {
        let cycle = |mut builder: GraphBuilder| {
            builder.edges([(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
            GraphSample {
                graph: builder.build().unwrap(),
                node_features: vec![0; 4],
                edge_features: vec![0; 4],
                target: Target::Regression(0.0),
            }
        };
        let (cfg, par) = (MegaConfig::default(), Parallelism::pinned(1));
        let samples = [
            cycle(GraphBuilder::undirected(4)),
            cycle(GraphBuilder::directed(4)),
        ];
        let refused = preprocess_samples(&samples, &cfg, &par).map(|s| s.len());
        assert!(
            matches!(&refused, Err(MegaError::Graph(GraphError::InvalidParameter { reason, .. }))
                if reason.starts_with("sample 1 is directed")),
            "{refused:?}"
        );
        assert!(preprocess_samples(&samples[..1], &cfg, &par).is_ok());
    }
}
