//! GNN epoch cost model.
//!
//! Expands a model configuration (the operator counts of Table I) over a
//! concrete graph batch into the kernel-launch sequence of one training step,
//! for both engines:
//!
//! * **DGL baseline** — per layer: a `cub` sort of edge indices, the Table I
//!   scatter ops as index-driven reads of node rows (vertex→edge dataflow),
//!   the gather ops as atomic index-driven writes (edge→vertex), dense
//!   `sgemm` projections, and elementwise neural ops.
//! * **MEGA** — per layer: the same `sgemm`/elementwise volume over the
//!   (slightly longer) path buffer, banded window reads instead of the
//!   index-driven reads, a near-sequential path→node scatter, and no sort.
//!
//! The backward pass reuses the forward sequence with reads and writes
//! mirrored, the standard 2× cost of training.

use crate::device::DeviceConfig;
use crate::profiler::Profiler;
use crate::report::ProfileReport;
use mega_core::AttentionSchedule;
use mega_graph::Graph;
use serde::{Deserialize, Serialize};

/// Operator counts of a GNN configuration (paper Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name for reports.
    pub name: String,
    /// Hidden dimension `d`.
    pub hidden_dim: usize,
    /// Number of stacked attention layers.
    pub layers: usize,
    /// Projection matrices per layer (parameter volume = `proj_per_layer`·d²).
    pub proj_per_layer: usize,
    /// Vertex→edge scatter calls per layer (Table I "Scatter(edges)").
    pub scatter_calls: usize,
    /// Edge→vertex gather calls per layer (Table I "Gather(nodes)").
    pub gather_calls: usize,
    /// Elementwise neural ops per layer (activations, norms, residuals).
    pub elementwise_calls: usize,
    /// Segment-reduction passes per layer over per-edge attention scores
    /// (softmax max/sum/normalize for GT; the gated normalizer for GCN).
    /// These run at small feature width — the worst case for index-driven
    /// access.
    pub segment_passes: usize,
}

impl ModelSpec {
    /// Gated Graph ConvNet: 5·d² parameters, ×1 scatter, ×2 gather.
    pub fn gated_gcn(hidden_dim: usize, layers: usize) -> Self {
        ModelSpec {
            name: "GCN".to_string(),
            hidden_dim,
            layers,
            proj_per_layer: 5,
            scatter_calls: 1,
            gather_calls: 2,
            elementwise_calls: 8,
            segment_passes: 1,
        }
    }

    /// Graph Transformer: 14·d² parameters, ×5 scatter, ×2 gather.
    pub fn graph_transformer(hidden_dim: usize, layers: usize) -> Self {
        ModelSpec {
            name: "GT".to_string(),
            hidden_dim,
            layers,
            proj_per_layer: 14,
            scatter_calls: 5,
            gather_calls: 2,
            elementwise_calls: 10,
            segment_passes: 3,
        }
    }

    /// Graph Attention Network (extension beyond Table I): ~3·d² parameters,
    /// ×2 scatter (source/destination score reads), ×1 gather, with the
    /// softmax's segment passes.
    pub fn gat(hidden_dim: usize, layers: usize) -> Self {
        ModelSpec {
            name: "GAT".to_string(),
            hidden_dim,
            layers,
            proj_per_layer: 3,
            scatter_calls: 2,
            gather_calls: 1,
            elementwise_calls: 5,
            segment_passes: 3,
        }
    }
}

/// Which execution engine to cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// Conventional graph attention via index-driven kernels.
    DglBaseline,
    /// MEGA banded attention over the path representation.
    Mega,
}

/// Flattened topology of one training batch.
#[derive(Debug, Clone)]
pub struct BatchTopology {
    /// Total nodes across the batch.
    pub n_nodes: usize,
    /// Directed adjacency slots across the batch (`2m` for undirected).
    pub n_slots: usize,
    /// Source node per slot (edge-parallel order).
    pub slot_src: Vec<usize>,
    /// Destination node per slot.
    pub slot_dst: Vec<usize>,
    /// Total path length across the batch (0 when no schedules given).
    pub path_len: usize,
    /// Window ω (max over the batch; 0 when no schedules given).
    pub window: usize,
    /// Node row for each path position.
    pub position_to_node: Vec<usize>,
    /// Active band slots across the batch (each original edge claims one;
    /// 0 when no schedules given). MEGA's symmetric diagonal reuse means
    /// edge-stream ops process `band_slots` rows where the baseline
    /// processes `n_slots = 2m` directed slots (§III-C).
    pub band_slots: usize,
}

impl BatchTopology {
    /// Builds the baseline topology from a batch of graphs.
    pub fn from_graphs(graphs: &[Graph]) -> Self {
        let mut offset = 0usize;
        let mut slot_src = Vec::new();
        let mut slot_dst = Vec::new();
        for g in graphs {
            for v in 0..g.node_count() {
                for &u in g.neighbors(v) {
                    slot_src.push(offset + u);
                    slot_dst.push(offset + v);
                }
            }
            offset += g.node_count();
        }
        BatchTopology {
            n_nodes: offset,
            n_slots: slot_src.len(),
            slot_src,
            slot_dst,
            path_len: 0,
            window: 0,
            position_to_node: Vec::new(),
            band_slots: 0,
        }
    }

    /// Extends a baseline topology with MEGA schedules (one per graph, same
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `schedules.len() != graphs.len()`.
    pub fn from_graphs_with_schedules(graphs: &[Graph], schedules: &[AttentionSchedule]) -> Self {
        assert_eq!(graphs.len(), schedules.len(), "one schedule per graph");
        let mut topo = Self::from_graphs(graphs);
        let mut offset = 0usize;
        for (g, s) in graphs.iter().zip(schedules) {
            for &v in s.gather_index() {
                topo.position_to_node.push(offset + v);
            }
            topo.window = topo.window.max(s.path().window());
            topo.band_slots += s.band().covered_edge_count();
            offset += g.node_count();
        }
        topo.path_len = topo.position_to_node.len();
        topo
    }
}

/// Feature width of per-edge attention scores (one f32 per head).
const SCORE_WIDTH: usize = 8;

/// The per-epoch cost of a (model, engine, batch) combination.
#[derive(Debug, Clone)]
pub struct EpochCost {
    /// Simulated seconds for one training step (one batch).
    pub step_seconds: f64,
    /// Simulated seconds for the full epoch.
    pub epoch_seconds: f64,
    /// Steps per epoch used for scaling.
    pub steps: usize,
    /// Profile of the simulated step.
    pub report: ProfileReport,
}

/// Costs GNN training steps on a simulated device.
#[derive(Debug, Clone)]
pub struct GnnCostModel {
    device: DeviceConfig,
    spec: ModelSpec,
    engine: EngineKind,
}

impl GnnCostModel {
    /// A cost model for `spec` running on `device` with `engine`.
    pub fn new(device: DeviceConfig, spec: ModelSpec, engine: EngineKind) -> Self {
        GnnCostModel {
            device,
            spec,
            engine,
        }
    }

    /// The model spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The engine.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Simulates one training step (forward + backward) on `profiler`.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is [`EngineKind::Mega`] but `topo` carries no path
    /// (built without schedules).
    pub fn simulate_step(&self, profiler: &mut Profiler, topo: &BatchTopology) {
        match self.engine {
            EngineKind::DglBaseline => self.simulate_step_dgl(profiler, topo),
            EngineKind::Mega => self.simulate_step_mega(profiler, topo),
        }
    }

    fn simulate_step_dgl(&self, p: &mut Profiler, topo: &BatchTopology) {
        let d = self.spec.hidden_dim;
        let nodes = p.alloc(topo.n_nodes * d * 4);
        let edges = p.alloc(topo.n_slots * d * 4);
        let weights = p.alloc(d * d * 4);
        p.launch_memcpy(nodes, topo.n_nodes * d * 4);
        for _layer in 0..self.spec.layers {
            // Forward + backward: mirrored index traffic, 2x dense volume.
            for pass in 0..2 {
                p.launch_sort(edges, topo.n_slots);
                for _ in 0..self.spec.scatter_calls {
                    // Vertex→edge: read node rows by index. Frameworks
                    // materialize every op output in a fresh tensor, so the
                    // cache churns between kernels.
                    let src = p.alloc(topo.n_nodes * d * 4);
                    p.launch_gather(src, &topo.slot_src, d, topo.n_slots);
                }
                for _ in 0..self.spec.gather_calls {
                    // Edge→vertex: atomic writes to node rows by index.
                    let dst = p.alloc(topo.n_nodes * d * 4);
                    p.launch_scatter(dst, &topo.slot_dst, d, topo.n_nodes);
                }
                for _ in 0..self.spec.segment_passes {
                    // Per-edge attention-score reductions (softmax passes):
                    // narrow rows, index-driven — the least coalescable kernel.
                    let scores = p.alloc(topo.n_slots * SCORE_WIDTH * 4);
                    p.launch_scatter(scores, &topo.slot_dst, SCORE_WIDTH, topo.n_nodes);
                    p.launch_gather(scores, &topo.slot_dst, SCORE_WIDTH, topo.n_slots);
                }
                // Dense projections: roughly a third of each layer's
                // matrices act on the edge stream (2m directed rows), the
                // rest on node rows.
                let edge_projs = self.spec.proj_per_layer / 3;
                for _ in 0..edge_projs {
                    let out = p.alloc(topo.n_slots * d * 4);
                    p.launch_linear_relu(edges, weights, out, topo.n_slots, d, d);
                }
                for _ in edge_projs..self.spec.proj_per_layer {
                    let out = p.alloc(topo.n_nodes * d * 4);
                    p.launch_linear_relu(nodes, weights, out, topo.n_nodes, d, d);
                }
                let edge_elt = self.spec.elementwise_calls / 2;
                for _ in 0..edge_elt {
                    let out = p.alloc(topo.n_slots * d * 4);
                    p.launch_elementwise(out, topo.n_slots * d, 4);
                }
                for _ in edge_elt..self.spec.elementwise_calls {
                    let out = p.alloc(topo.n_nodes * d * 4);
                    p.launch_elementwise(out, topo.n_nodes * d, 4);
                }
                let _ = pass;
            }
        }
    }

    fn simulate_step_mega(&self, p: &mut Profiler, topo: &BatchTopology) {
        assert!(
            topo.path_len > 0,
            "Mega engine requires a topology built with schedules"
        );
        let d = self.spec.hidden_dim;
        let path_buf = p.alloc(topo.path_len * d * 4);
        let nodes = p.alloc(topo.n_nodes * d * 4);
        let weights = p.alloc(d * d * 4);
        p.launch_memcpy(path_buf, topo.path_len * d * 4);
        let window = topo.window.max(1);
        for _layer in 0..self.spec.layers {
            for pass in 0..2 {
                for _ in 0..self.spec.scatter_calls {
                    if pass == 0 {
                        // Forward: windowed reads along the path, sequential.
                        // Fresh output tensors per op, as in the baseline.
                        let buf = p.alloc(topo.path_len * d * 4);
                        p.launch_band_gather(buf, topo.path_len, window, d);
                    } else {
                        // Backward: the banded weight gradient walks the same
                        // band but interleaves activation and upstream-grad
                        // reads — its own kernel, so profiles attribute
                        // forward gather and weight-grad separately.
                        let grad = p.alloc(topo.path_len * d * 4);
                        p.launch_band_wgrad(path_buf, grad, topo.path_len, window, d);
                    }
                }
                for _ in 0..self.spec.gather_calls {
                    // Path positions → node rows: near-sequential writes.
                    p.launch_band_scatter(nodes, &topo.position_to_node, d);
                }
                for _ in 0..self.spec.segment_passes {
                    // Score reductions ride the band too: sequential passes
                    // over path-ordered scores.
                    let scores = p.alloc(topo.path_len * SCORE_WIDTH * 4);
                    p.launch_band_gather(scores, topo.path_len, window, SCORE_WIDTH);
                    p.launch_band_scatter(nodes, &topo.position_to_node, SCORE_WIDTH);
                }
                // Dense projections: the edge-stream third runs over the
                // band slots (one per undirected edge — the symmetric
                // diagonal reuse of §III-C halves it vs the baseline's 2m),
                // the rest over node rows.
                let band_rows = topo.band_slots.max(1);
                let edge_projs = self.spec.proj_per_layer / 3;
                for _ in 0..edge_projs {
                    let out = p.alloc(band_rows * d * 4);
                    p.launch_linear_relu(path_buf, weights, out, band_rows, d, d);
                }
                for _ in edge_projs..self.spec.proj_per_layer {
                    let out = p.alloc(topo.n_nodes * d * 4);
                    p.launch_linear_relu(nodes, weights, out, topo.n_nodes, d, d);
                }
                let edge_elt = self.spec.elementwise_calls / 2;
                for _ in 0..edge_elt {
                    let out = p.alloc(band_rows * d * 4);
                    p.launch_elementwise(out, band_rows * d, 4);
                }
                for _ in edge_elt..self.spec.elementwise_calls {
                    let out = p.alloc(topo.n_nodes * d * 4);
                    p.launch_elementwise(out, topo.n_nodes * d, 4);
                }
                let _ = pass;
            }
        }
    }

    /// Costs one epoch: simulates a single representative step on a fresh
    /// profiler and scales to `steps` batches.
    pub fn epoch_cost(&self, topo: &BatchTopology, steps: usize) -> EpochCost {
        let mut p = Profiler::new(self.device.clone());
        self.simulate_step(&mut p, topo);
        let step_seconds = p.elapsed_seconds();
        EpochCost {
            step_seconds,
            epoch_seconds: step_seconds * steps as f64,
            steps,
            report: p.report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_core::{preprocess, MegaConfig};
    use mega_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch(n_graphs: usize) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(42);
        (0..n_graphs)
            .map(|_| generate::molecular_chain(23, 4, 3, &mut rng).unwrap())
            .collect()
    }

    fn schedules(graphs: &[Graph]) -> Vec<AttentionSchedule> {
        graphs
            .iter()
            .map(|g| preprocess(g, &MegaConfig::default()).unwrap())
            .collect()
    }

    #[test]
    fn topology_offsets_are_consistent() {
        let graphs = batch(3);
        let topo = BatchTopology::from_graphs(&graphs);
        assert_eq!(topo.n_nodes, 69);
        assert_eq!(
            topo.n_slots,
            graphs.iter().map(|g| 2 * g.edge_count()).sum::<usize>()
        );
        assert!(topo.slot_src.iter().all(|&v| v < topo.n_nodes));
        assert!(topo.slot_dst.iter().all(|&v| v < topo.n_nodes));
    }

    #[test]
    fn schedule_topology_adds_path() {
        let graphs = batch(2);
        let s = schedules(&graphs);
        let topo = BatchTopology::from_graphs_with_schedules(&graphs, &s);
        assert!(topo.path_len >= topo.n_nodes);
        assert!(topo.window >= 1);
        assert!(topo.position_to_node.iter().all(|&v| v < topo.n_nodes));
    }

    #[test]
    fn mega_step_is_faster_than_dgl() {
        let graphs = batch(32);
        let s = schedules(&graphs);
        let topo = BatchTopology::from_graphs_with_schedules(&graphs, &s);
        let spec = ModelSpec::graph_transformer(64, 2);
        let dgl = GnnCostModel::new(
            DeviceConfig::gtx_1080(),
            spec.clone(),
            EngineKind::DglBaseline,
        )
        .epoch_cost(&topo, 10);
        let mega = GnnCostModel::new(DeviceConfig::gtx_1080(), spec, EngineKind::Mega)
            .epoch_cost(&topo, 10);
        assert!(
            mega.epoch_seconds < dgl.epoch_seconds,
            "mega {} vs dgl {}",
            mega.epoch_seconds,
            dgl.epoch_seconds
        );
    }

    #[test]
    fn gt_spends_more_on_graph_ops_than_gcn() {
        // The paper's profiling scale (batch 64, hidden 128): at tiny scales
        // launch overhead flattens the shares.
        let graphs = batch(64);
        let topo = BatchTopology::from_graphs(&graphs);
        let dev = DeviceConfig::gtx_1080();
        let gcn = GnnCostModel::new(
            dev.clone(),
            ModelSpec::gated_gcn(128, 2),
            EngineKind::DglBaseline,
        )
        .epoch_cost(&topo, 1);
        let gt = GnnCostModel::new(
            dev,
            ModelSpec::graph_transformer(128, 2),
            EngineKind::DglBaseline,
        )
        .epoch_cost(&topo, 1);
        assert!(
            gt.report.graph_op_time_share() > gcn.report.graph_op_time_share(),
            "gt {} vs gcn {}",
            gt.report.graph_op_time_share(),
            gcn.report.graph_op_time_share()
        );
    }

    #[test]
    fn mega_aggregate_efficiency_beats_dgl() {
        let graphs = batch(16);
        let s = schedules(&graphs);
        let topo = BatchTopology::from_graphs_with_schedules(&graphs, &s);
        let dev = DeviceConfig::gtx_1080();
        let spec = ModelSpec::graph_transformer(128, 2);
        let dgl = GnnCostModel::new(dev.clone(), spec.clone(), EngineKind::DglBaseline)
            .epoch_cost(&topo, 1);
        let mega = GnnCostModel::new(dev, spec, EngineKind::Mega).epoch_cost(&topo, 1);
        assert!(mega.report.aggregate_sm_efficiency() > dgl.report.aggregate_sm_efficiency());
        assert!(mega.report.aggregate_stall_pct() < dgl.report.aggregate_stall_pct());
    }

    #[test]
    #[should_panic(expected = "requires a topology built with schedules")]
    fn mega_requires_schedules() {
        let graphs = batch(2);
        let topo = BatchTopology::from_graphs(&graphs);
        let model = GnnCostModel::new(
            DeviceConfig::gtx_1080(),
            ModelSpec::gated_gcn(32, 1),
            EngineKind::Mega,
        );
        let mut p = Profiler::new(DeviceConfig::gtx_1080());
        model.simulate_step(&mut p, &topo);
    }
}
