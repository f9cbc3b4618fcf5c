//! The modeled GPU clock: what one training epoch would cost on the paper's
//! GTX 1080, computed by the `mega-gpu-sim` cost model.
//!
//! Nothing here is measured, and training never calls it — a
//! [`TrainingHistory`](crate::TrainingHistory) holds host measurements only.
//! Code that prints a modeled number (the figures, `mega train`/`profile`,
//! the paper-claim tests) calls [`modeled_epoch`] and labels the result as
//! modeled.

use crate::config::{EngineChoice, GnnConfig, ModelKind};
use mega_core::{preprocess, MegaConfig};
use mega_datasets::Dataset;
use mega_gpu_sim::{BatchTopology, DeviceConfig, EngineKind, EpochCost, GnnCostModel, ModelSpec};

/// The Table I operator counts for a model configuration.
pub fn model_spec(config: &GnnConfig) -> ModelSpec {
    match config.kind {
        ModelKind::GatedGcn => ModelSpec::gated_gcn(config.hidden_dim, config.layers),
        ModelKind::GraphTransformer => {
            ModelSpec::graph_transformer(config.hidden_dim, config.layers)
        }
        ModelKind::Gat => ModelSpec::gat(config.hidden_dim, config.layers),
    }
}

/// Modeled GTX 1080 cost of one training epoch of `config` under `engine`
/// (the paper's profiling setup): the first `batch_size` training samples —
/// preprocessed with `mega_config` under the MEGA engine — stand for every
/// step, and the step is scaled by the epoch's batch count.
///
/// # Panics
///
/// If preprocessing a training graph fails (generated datasets hold valid
/// graphs only).
pub fn modeled_epoch(
    dataset: &Dataset,
    config: &GnnConfig,
    engine: EngineChoice,
    batch_size: usize,
    mega_config: &MegaConfig,
) -> EpochCost {
    let batch_size = batch_size.max(1);
    let samples = &dataset.train[..dataset.train.len().min(batch_size)];
    let graphs: Vec<mega_graph::Graph> = samples.iter().map(|s| s.graph.clone()).collect();
    let (topo, kind) = match engine {
        EngineChoice::Baseline => (BatchTopology::from_graphs(&graphs), EngineKind::DglBaseline),
        EngineChoice::Mega => {
            let schedules: Vec<_> = graphs
                .iter()
                .map(|g| {
                    preprocess(g, mega_config).expect("preprocessing of a valid graph cannot fail")
                })
                .collect();
            (
                BatchTopology::from_graphs_with_schedules(&graphs, &schedules),
                EngineKind::Mega,
            )
        }
    };
    let steps = dataset.train.len().div_ceil(batch_size).max(1);
    GnnCostModel::new(DeviceConfig::gtx_1080(), model_spec(config), kind).epoch_cost(&topo, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_datasets::{zinc, DatasetSpec};

    #[test]
    fn spec_mapping() {
        let cfg = GnnConfig::new(ModelKind::GatedGcn, 4, 4, 1)
            .with_hidden(64)
            .with_layers(3);
        let spec = model_spec(&cfg);
        assert_eq!(spec.scatter_calls, 1);
        let cfg = GnnConfig::new(ModelKind::GraphTransformer, 4, 4, 1);
        assert_eq!(model_spec(&cfg).scatter_calls, 5);
    }

    #[test]
    fn mega_epoch_costs_less() {
        let ds = zinc(&DatasetSpec::tiny(9));
        let cfg = GnnConfig::new(ModelKind::GraphTransformer, ds.node_vocab, ds.edge_vocab, 1)
            .with_hidden(64)
            .with_layers(2);
        let mc = MegaConfig::default();
        let base = modeled_epoch(&ds, &cfg, EngineChoice::Baseline, 16, &mc);
        let mega = modeled_epoch(&ds, &cfg, EngineChoice::Mega, 16, &mc);
        assert!(mega.epoch_seconds < base.epoch_seconds);
        assert!(base.epoch_seconds > 0.0);
        assert_eq!(base.steps, ds.train.len().div_ceil(16));
    }
}
