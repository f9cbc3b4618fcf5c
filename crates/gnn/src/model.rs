//! The full GNN: embeddings → stacked layers → readout head.

use crate::batch::Batch;
use crate::config::{GnnConfig, ModelKind};
use crate::layers::{GatLayer, GatedGcnLayer, GraphTransformerLayer, Layer};
use crate::nn::{Binder, Embedding, Mlp};
use mega_datasets::Task;
use mega_tensor::{ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A complete graph-prediction model.
///
/// # Example
///
/// ```
/// use mega_gnn::{Batch, Gnn, GnnConfig, ModelKind};
/// use mega_datasets::{zinc, DatasetSpec, Task};
/// use mega_tensor::{ParamStore, Tape};
/// use mega_gnn::nn::Binder;
///
/// let ds = zinc(&DatasetSpec::tiny(1));
/// let cfg = GnnConfig::new(ModelKind::GatedGcn, ds.node_vocab, ds.edge_vocab, 1)
///     .with_hidden(16)
///     .with_layers(2);
/// let mut store = ParamStore::new();
/// let model = Gnn::new(&mut store, cfg);
/// let batch = Batch::baseline(&ds.train[..4]);
/// let mut tape = Tape::new();
/// let mut binder = Binder::new();
/// let pred = model.forward(&mut tape, &mut binder, &store, &batch);
/// assert_eq!(tape.value(pred).shape(), (4, 1));
/// ```
#[derive(Debug)]
pub struct Gnn {
    config: GnnConfig,
    node_embed: Embedding,
    edge_embed: Embedding,
    layers: Vec<Layer>,
    head: Mlp,
}

impl Gnn {
    /// Registers all parameters of a model described by `config`.
    pub fn new(store: &mut ParamStore, config: GnnConfig) -> Self {
        config.assert_valid();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let d = config.hidden_dim;
        let node_embed = Embedding::new(store, "embed.node", config.node_vocab, d, &mut rng);
        let edge_embed = Embedding::new(store, "embed.edge", config.edge_vocab, d, &mut rng);
        let layers = (0..config.layers)
            .map(|i| match config.kind {
                ModelKind::GatedGcn => {
                    Layer::Gcn(GatedGcnLayer::new(store, &format!("layer{i}"), d, &mut rng))
                }
                ModelKind::GraphTransformer => Layer::Gt(GraphTransformerLayer::new(
                    store,
                    &format!("layer{i}"),
                    d,
                    config.heads,
                    &mut rng,
                )),
                ModelKind::Gat => Layer::Gat(GatLayer::new(
                    store,
                    &format!("layer{i}"),
                    d,
                    config.heads,
                    &mut rng,
                )),
            })
            .collect();
        let head = Mlp::new(store, "head", d, d / 2, config.out_dim, &mut rng);
        Gnn {
            config,
            node_embed,
            edge_embed,
            layers,
            head,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Forward pass over a batch; returns per-graph predictions
    /// (`n_graphs × out_dim`).
    pub fn forward(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        batch: &Batch,
    ) -> Var {
        let idx = &batch.indices;
        let mut h = self
            .node_embed
            .forward(tape, binder, store, batch.node_feats.clone());
        let mut e = self
            .edge_embed
            .forward(tape, binder, store, idx.msg_edge_feat.clone());
        for layer in &self.layers {
            let (h2, e2) = layer.forward(tape, binder, store, idx, h, e);
            h = h2;
            e = e2;
        }
        // Mean readout per graph: each graph's row of sums times `1/size`, an
        // `n_graphs × 1` leaf in a pooled buffer (the tape returns every
        // node's buffer to its pool).
        let sums = tape.scatter_add_rows(h, batch.graph_of_node.clone(), batch.n_graphs());
        let inv_sizes: Vec<f32> = batch
            .graph_sizes
            .iter()
            .map(|&s| 1.0 / s.max(1) as f32)
            .collect();
        let inv_sizes = tape.leaf_copy(&Tensor::from_vec(batch.n_graphs(), 1, inv_sizes));
        let means = tape.mul_col_broadcast(sums, inv_sizes);
        self.head.forward(tape, binder, store, means)
    }

    /// Builds the task loss for a batch's predictions.
    pub fn loss(&self, tape: &mut Tape, pred: Var, batch: &Batch, task: Task) -> Var {
        match task {
            Task::Regression => tape.l1_loss(pred, batch.regression_targets()),
            Task::Classification { .. } => {
                tape.cross_entropy(pred, Arc::new(batch.class_targets()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::config::EngineChoice;
    use mega_core::{preprocess, MegaConfig};
    use mega_datasets::{csl, zinc, DatasetSpec};

    fn zinc_model(
        d: usize,
        layers: usize,
        kind: ModelKind,
    ) -> (ParamStore, Gnn, Vec<mega_datasets::GraphSample>) {
        let ds = zinc(&DatasetSpec::tiny(5));
        let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, 1)
            .with_hidden(d)
            .with_layers(layers)
            .with_heads(2);
        let mut store = ParamStore::new();
        let model = Gnn::new(&mut store, cfg);
        (store, model, ds.train)
    }

    #[test]
    fn regression_forward_and_loss() {
        let (store, model, samples) = zinc_model(8, 2, ModelKind::GatedGcn);
        let batch = Batch::baseline(&samples[..4]);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let pred = model.forward(&mut tape, &mut binder, &store, &batch);
        assert_eq!(tape.value(pred).shape(), (4, 1));
        let loss = model.loss(&mut tape, pred, &batch, Task::Regression);
        assert!(tape.value(loss).at(0, 0).is_finite());
    }

    #[test]
    fn classification_forward_shape() {
        let ds = csl(&DatasetSpec::tiny(6));
        let cfg = GnnConfig::new(ModelKind::GraphTransformer, ds.node_vocab, ds.edge_vocab, 4)
            .with_hidden(8)
            .with_layers(1)
            .with_heads(2);
        let mut store = ParamStore::new();
        let model = Gnn::new(&mut store, cfg);
        let batch = Batch::baseline(&ds.train[..4]);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let pred = model.forward(&mut tape, &mut binder, &store, &batch);
        assert_eq!(tape.value(pred).shape(), (4, 4));
        let loss = model.loss(&mut tape, pred, &batch, Task::Classification { classes: 4 });
        assert!(tape.value(loss).at(0, 0) > 0.0);
    }

    /// The paper's central accuracy claim: the MEGA engine computes the same
    /// function as the baseline (full coverage, per-node softmax/aggregation).
    #[test]
    fn engines_are_numerically_equivalent() {
        for kind in [
            ModelKind::GatedGcn,
            ModelKind::GraphTransformer,
            ModelKind::Gat,
        ] {
            let (store, model, samples) = zinc_model(8, 2, kind);
            let samples = &samples[..3];
            let schedules: Vec<_> = samples
                .iter()
                .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
                .collect();
            let base = Batch::baseline(samples);
            let mega = Batch::mega(samples, &schedules);
            assert_eq!(mega.indices.engine(), EngineChoice::Mega);

            let mut tape_b = Tape::new();
            let mut binder_b = Binder::new();
            let pred_b = model.forward(&mut tape_b, &mut binder_b, &store, &base);
            let mut tape_m = Tape::new();
            let mut binder_m = Binder::new();
            let pred_m = model.forward(&mut tape_m, &mut binder_m, &store, &mega);

            let vb = tape_b.value(pred_b);
            let vm = tape_m.value(pred_m);
            for (a, b) in vb.as_slice().iter().zip(vm.as_slice()) {
                assert!(
                    (a - b).abs() < 2e-3 * (1.0 + a.abs()),
                    "{kind:?}: baseline {a} vs mega {b}"
                );
            }
        }
    }

    #[test]
    fn gt_has_roughly_triple_gcn_parameters() {
        let (store_gcn, _, _) = zinc_model(16, 2, ModelKind::GatedGcn);
        let (store_gt, _, _) = zinc_model(16, 2, ModelKind::GraphTransformer);
        let ratio = store_gt.scalar_count() as f64 / store_gcn.scalar_count() as f64;
        assert!(ratio > 2.0 && ratio < 3.5, "ratio {ratio}");
    }
}
