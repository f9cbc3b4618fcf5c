//! Graph batching and engine message indices.
//!
//! A [`Batch`] merges several [`GraphSample`]s into one node-id space (the
//! standard block-diagonal batching of GNN frameworks) and builds the
//! [`EngineIndices`] that route messages:
//!
//! * **Baseline**: one message per directed adjacency slot, exactly the DGL
//!   pattern: each message's source node, for the layers to gather per
//!   message ([`Route::Gather`]).
//! * **MEGA**: one message pair per active band slot, in slot order, and the
//!   batch's stitched slot list as a [`Band`] the layers walk
//!   ([`Route::Band`]); no per-message index exists. The attention softmax
//!   and the aggregation remain keyed by *destination node*, so with full
//!   edge coverage every node receives exactly the same multiset of
//!   messages as under the baseline — the two engines are numerically
//!   equivalent and only their memory-access shape differs.
//!
//! The layers reach the messages only through four methods of
//! [`EngineIndices`] — [`edge_sum`](EngineIndices::edge_sum),
//! [`edge_scores`](EngineIndices::edge_scores),
//! [`attend`](EngineIndices::attend) and [`gate`](EngineIndices::gate).
//! Each is one band op on MEGA and the baseline's gather → per-message ops →
//! scatter chain otherwise, with the same forward values bit for bit; on
//! MEGA the backward sums each node's messages in one group (DESIGN.md §7).

use crate::config::EngineChoice;
use mega_core::band::BandSlot;
use mega_core::AttentionSchedule;
use mega_datasets::{GraphSample, Target};
use mega_tensor::{Band, Tape, Var};
use std::sync::Arc;

/// Message routing for one batch under one engine.
#[derive(Debug, Clone)]
pub struct EngineIndices {
    /// Total nodes in the batch.
    pub n_nodes: usize,
    /// Rows of the engine's working order: nodes for baseline, path
    /// positions for MEGA.
    pub work_rows: usize,
    /// Message destination *node* row (softmax segments and aggregation).
    pub msg_dst_node: Arc<Vec<usize>>,
    /// Edge-feature vocabulary id per message.
    pub msg_edge_feat: Arc<Vec<usize>>,
    /// How messages reach the node rows they read.
    pub route: Route,
}

/// How a batch's messages reach their source nodes' rows.
#[derive(Debug, Clone)]
pub enum Route {
    /// The baseline engine: message `i` reads node row `src[i]`; the layers
    /// gather per-message copies through it, and through
    /// [`EngineIndices::msg_dst_node`] for destinations.
    Gather(Arc<Vec<usize>>),
    /// The MEGA engine: the batch's band — its stitched active slots, slot
    /// `j` carrying messages `2j` (`lo → hi`) and `2j + 1` (`hi → lo`) —
    /// which the band ops walk, reading node rows through its position →
    /// node map.
    Band(Arc<Band>),
}

impl EngineIndices {
    /// Which engine these indices express.
    pub fn engine(&self) -> EngineChoice {
        match self.route {
            Route::Gather(_) => EngineChoice::Baseline,
            Route::Band(_) => EngineChoice::Mega,
        }
    }

    /// Number of messages.
    pub fn msg_count(&self) -> usize {
        self.msg_dst_node.len()
    }

    /// The additive edge score `src_rows[src] + dst_rows[dst] + ee` of every
    /// message, from node rows `src_rows`, `dst_rows` (`n × w`) and message
    /// rows `ee` (`m × w`): GatedGCN's ê, and GAT's scores at width `heads`.
    pub fn edge_sum(&self, tape: &mut Tape, src_rows: Var, dst_rows: Var, ee: Var) -> Var {
        match &self.route {
            Route::Band(band) => tape.band_edge_sum(src_rows, dst_rows, ee, band),
            Route::Gather(src) => {
                let at_src = tape.gather_rows(src_rows, src.clone());
                let at_dst = tape.gather_rows(dst_rows, self.msg_dst_node.clone());
                let sum = tape.add(at_src, at_dst);
                tape.add(sum, ee)
            }
        }
    }

    /// The Graph Transformer's ŵ `(q[dst] ⊙ k[src]) ⊙ ee · scale` of every
    /// message, from node rows `q`, `k` (`n × d`) and message rows `ee`.
    pub fn edge_scores(&self, tape: &mut Tape, q: Var, k: Var, ee: Var, scale: f32) -> Var {
        match &self.route {
            Route::Band(band) => tape.band_edge_scores(q, k, ee, band, scale),
            Route::Gather(src) => {
                let q_dst = tape.gather_rows(q, self.msg_dst_node.clone());
                let k_src = tape.gather_rows(k, src.clone());
                let qk = tape.mul(q_dst, k_src);
                let qke = tape.mul(qk, ee);
                tape.scale(qke, scale)
            }
        }
    }

    /// Multi-head attention: each head's score is the sum of its column
    /// block of the message rows `e_what` (`m × w`), softmaxed over each
    /// destination node's messages, and weighs its block of the source's
    /// node row of `v` (`n × d`) into the destination's row (`n × d`).
    pub fn attend(&self, tape: &mut Tape, e_what: Var, v: Var, heads: usize) -> Var {
        match &self.route {
            Route::Band(band) => tape.band_attend(e_what, v, band, heads),
            Route::Gather(src) => {
                let dst = self.msg_dst_node.clone();
                let score = tape.row_block_sums(e_what, heads);
                let attn = tape.segment_softmax(score, dst.clone(), self.n_nodes);
                let v_src = tape.gather_rows(v, src.clone());
                let weighted = tape.mul_col_broadcast(v_src, attn);
                tape.scatter_add_rows(weighted, dst, self.n_nodes)
            }
        }
    }

    /// GatedGCN's gated aggregate: with the gates `η = σ(e_hat)` (`m × d`),
    /// each destination node's `Σ η ⊙ v[src] / (Σ η + eps)`, `v` being node
    /// rows (`n × d`).
    pub fn gate(&self, tape: &mut Tape, e_hat: Var, v: Var, eps: f32) -> Var {
        match &self.route {
            Route::Band(band) => tape.band_gate(e_hat, v, band, eps),
            Route::Gather(src) => {
                let dst = self.msg_dst_node.clone();
                let sigma = tape.sigmoid(e_hat);
                let v_src = tape.gather_rows(v, src.clone());
                let gated = tape.mul(sigma, v_src);
                let num = tape.scatter_add_rows(gated, dst.clone(), self.n_nodes);
                let den = tape.scatter_add_rows(sigma, dst, self.n_nodes);
                tape.div_eps(num, den, eps)
            }
        }
    }
}

/// One sample's contribution to a MEGA batch, in sample-local indices.
/// Built independently per sample (so batches can fan construction out
/// across threads) and stitched with running offsets afterwards.
struct MegaSegment {
    node_feats: Vec<usize>,
    /// Sample-local node id per path position.
    node_of: Vec<usize>,
    /// `(lo, hi, edge_feat)` per active band slot: the messages `lo → hi`
    /// and `hi → lo` between those path positions.
    slots: Vec<(usize, usize, usize)>,
    n_nodes: usize,
}

impl MegaSegment {
    fn build(s: &GraphSample, sched: &AttentionSchedule) -> Self {
        let g = &s.graph;
        let node_feats = (0..g.node_count()).map(|v| s.node_features[v]).collect();
        // Slot edge ids refer to the *working* graph, which keeps each edge
        // as the sample stores it, dropped or not: look up that stored arc,
        // not the band's pair rule (the later of two opposite arcs).
        let working = sched.working_graph().edge_list().pairs();
        let csr = g.csr();
        let slots = sched
            .band()
            .active_slots()
            .iter()
            .map(|slot| {
                let (a, b) = working[slot.edge];
                let eid = csr
                    .edge_id(a, b)
                    .expect("every working edge is a sample edge");
                (slot.lo, slot.hi, s.edge_features[eid])
            })
            .collect();
        MegaSegment {
            node_feats,
            node_of: sched.gather_index().to_vec(),
            slots,
            n_nodes: g.node_count(),
        }
    }
}

/// A merged batch of graphs ready for a forward pass.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Node-feature vocabulary id per node.
    pub node_feats: Arc<Vec<usize>>,
    /// Graph index per node (readout segments).
    pub graph_of_node: Arc<Vec<usize>>,
    /// Node count per graph.
    pub graph_sizes: Vec<usize>,
    /// Per-graph targets.
    pub targets: Vec<Target>,
    /// Message routing.
    pub indices: EngineIndices,
}

impl Batch {
    /// Builds a baseline (DGL-style) batch.
    pub fn baseline(samples: &[GraphSample]) -> Self {
        let mut node_feats = Vec::new();
        let mut graph_of_node = Vec::new();
        let mut graph_sizes = Vec::new();
        let mut targets = Vec::new();
        let mut msg_src = Vec::new();
        let mut msg_dst = Vec::new();
        let mut msg_edge = Vec::new();
        let mut offset = 0usize;
        for (gi, s) in samples.iter().enumerate() {
            let g = &s.graph;
            for v in 0..g.node_count() {
                node_feats.push(s.node_features[v]);
                graph_of_node.push(gi);
                let csr = g.csr();
                for (slot, &u) in csr.neighbors(v).iter().enumerate() {
                    let eid = csr.edge_ids(v)[slot];
                    msg_src.push(offset + u);
                    msg_dst.push(offset + v);
                    msg_edge.push(s.edge_features[eid]);
                }
            }
            graph_sizes.push(g.node_count());
            targets.push(s.target);
            offset += g.node_count();
        }
        Batch {
            node_feats: Arc::new(node_feats),
            graph_of_node: Arc::new(graph_of_node),
            graph_sizes,
            targets,
            indices: EngineIndices {
                n_nodes: offset,
                work_rows: offset,
                msg_dst_node: Arc::new(msg_dst),
                msg_edge_feat: Arc::new(msg_edge),
                route: Route::Gather(Arc::new(msg_src)),
            },
        }
    }

    /// Builds a MEGA batch from samples and their preprocessed schedules
    /// (aligned by index).
    ///
    /// The samples must be undirected, as [`crate::preprocess_samples`]
    /// checks: each band slot carries one message each way, so a directed
    /// graph would get two messages per covered arc where
    /// [`Batch::baseline`] sends one.
    ///
    /// # Panics
    ///
    /// Panics if `schedules.len() != samples.len()`.
    pub fn mega(samples: &[GraphSample], schedules: &[AttentionSchedule]) -> Self {
        Self::mega_with(samples, schedules, &mega_core::Parallelism::with_threads(1))
    }

    /// Builds a MEGA batch with per-sample index construction fanned out
    /// across the thread budget of `par`.
    ///
    /// Each sample's segment is built independently (sample-local indices),
    /// then stitched serially in sample order with running node/position
    /// offsets — the result is identical to [`Batch::mega`] for every thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `schedules.len() != samples.len()`.
    pub fn mega_with(
        samples: &[GraphSample],
        schedules: &[AttentionSchedule],
        par: &mega_core::Parallelism,
    ) -> Self {
        assert_eq!(samples.len(), schedules.len(), "one schedule per sample");
        let pairs: Vec<(&GraphSample, &AttentionSchedule)> =
            samples.iter().zip(schedules).collect();
        let segments =
            mega_core::parallel::ordered_map(&pairs, par.effective_threads(), |_, &(s, sched)| {
                MegaSegment::build(s, sched)
            });

        let mut node_feats = Vec::new();
        let mut graph_of_node = Vec::new();
        let mut graph_sizes = Vec::new();
        let mut targets = Vec::new();
        let mut node_of = Vec::new();
        let mut msg_dst_node = Vec::new();
        let mut msg_edge = Vec::new();
        let mut slots = Vec::new();
        let mut node_offset = 0usize;
        for (gi, (seg, s)) in segments.into_iter().zip(samples).enumerate() {
            node_feats.extend_from_slice(&seg.node_feats);
            graph_of_node.extend(std::iter::repeat_n(gi, seg.n_nodes));
            let pos_offset = node_of.len();
            for &(lo, hi, feat) in &seg.slots {
                // Message `2j` is slot `j`'s `lo → hi`, `2j + 1` its
                // `hi → lo`; the slot's edge is its index in the batch.
                let (lo_node, hi_node) = (seg.node_of[lo], seg.node_of[hi]);
                msg_dst_node.extend([node_offset + hi_node, node_offset + lo_node]);
                msg_edge.extend([feat, feat]);
                slots.push(BandSlot {
                    lo: pos_offset + lo,
                    hi: pos_offset + hi,
                    edge: slots.len(),
                });
            }
            node_of.extend(seg.node_of.iter().map(|&v| node_offset + v));
            graph_sizes.push(seg.n_nodes);
            targets.push(s.target);
            node_offset += seg.n_nodes;
        }
        let msg_dst_node = Arc::new(msg_dst_node);
        let work_rows = node_of.len();
        let band = Band {
            slots: Arc::new(slots),
            node_of: Arc::new(node_of),
            msg_dst: msg_dst_node.clone(),
            n_nodes: node_offset,
        };
        Batch {
            node_feats: Arc::new(node_feats),
            graph_of_node: Arc::new(graph_of_node),
            graph_sizes,
            targets,
            indices: EngineIndices {
                n_nodes: node_offset,
                work_rows,
                msg_dst_node,
                msg_edge_feat: Arc::new(msg_edge),
                route: Route::Band(Arc::new(band)),
            },
        }
    }

    /// Number of graphs in the batch.
    pub fn n_graphs(&self) -> usize {
        self.graph_sizes.len()
    }

    /// Regression targets as a column tensor.
    ///
    /// # Panics
    ///
    /// Panics if any target is a class.
    pub fn regression_targets(&self) -> mega_tensor::Tensor {
        let vals: Vec<f32> = self.targets.iter().map(|t| t.value()).collect();
        mega_tensor::Tensor::from_vec(vals.len(), 1, vals)
    }

    /// Class targets as indices.
    ///
    /// # Panics
    ///
    /// Panics if any target is a regression value.
    pub fn class_targets(&self) -> Vec<usize> {
        self.targets.iter().map(|t| t.class()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testing::message_sources;
    use mega_core::{preprocess, MegaConfig};
    use mega_datasets::{zinc, DatasetSpec};

    fn samples() -> Vec<GraphSample> {
        zinc(&DatasetSpec::tiny(1))
            .train
            .into_iter()
            .take(4)
            .collect()
    }

    #[test]
    fn baseline_batch_message_counts() {
        let ss = samples();
        let b = Batch::baseline(&ss);
        let expected_msgs: usize = ss.iter().map(|s| 2 * s.graph.edge_count()).sum();
        assert_eq!(b.indices.msg_count(), expected_msgs);
        let expected_nodes: usize = ss.iter().map(|s| s.graph.node_count()).sum();
        assert_eq!(b.indices.n_nodes, expected_nodes);
        assert_eq!(b.indices.work_rows, expected_nodes);
        assert_eq!(b.n_graphs(), 4);
    }

    #[test]
    fn baseline_messages_stay_within_graph() {
        let ss = samples();
        let b = Batch::baseline(&ss);
        let sources = message_sources(&b.indices);
        for (&s, &d) in sources.iter().zip(b.indices.msg_dst_node.iter()) {
            assert_eq!(
                b.graph_of_node[s], b.graph_of_node[d],
                "message crosses graphs"
            );
        }
    }

    #[test]
    fn mega_batch_has_equal_message_multiset_per_node() {
        let ss = samples();
        let schedules: Vec<_> = ss
            .iter()
            .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
            .collect();
        let base = Batch::baseline(&ss);
        let mega = Batch::mega(&ss, &schedules);
        assert_eq!(base.indices.msg_count(), mega.indices.msg_count());
        // Per destination node: the multiset of (source node, edge feature)
        // must be identical across engines.
        let collect = |b: &Batch| {
            let mut m: std::collections::BTreeMap<usize, Vec<(usize, usize)>> = Default::default();
            let idx = &b.indices;
            let sources = message_sources(idx);
            for (i, &src) in sources.iter().enumerate() {
                m.entry(idx.msg_dst_node[i])
                    .or_default()
                    .push((src, idx.msg_edge_feat[i]));
            }
            for v in m.values_mut() {
                v.sort_unstable();
            }
            m
        };
        assert_eq!(collect(&base), collect(&mega));
    }

    /// A slot carries the feature of the sample edge stored as its working
    /// edge is, on a directed graph too: with nothing dropped the later of
    /// the arcs 0 → 1 and 1 → 0 owns their slot (feature 5); with 1 → 0
    /// dropped (seed 1), 0 → 1 does (feature 3).
    #[test]
    fn mega_slots_carry_their_working_edge_feature() {
        let pairs = [(0, 1), (1, 2), (1, 0), (2, 3), (3, 0)];
        let mut graph = mega_graph::GraphBuilder::directed(4);
        graph.edges(pairs).unwrap();
        let sample = GraphSample {
            node_features: vec![0; 4],
            edge_features: vec![3, 4, 5, 6, 7],
            target: Target::Regression(0.0),
            graph: graph.build().unwrap(),
        };
        for (drop, pair_feat) in [(0.0, 5), (0.2, 3)] {
            let cfg = MegaConfig::default().with_coverage(0.5).with_seed(1);
            let sched = preprocess(&sample.graph, &cfg.with_edge_drop(drop)).unwrap();
            let working = sched.working_graph().edge_list().pairs();
            let slots = sched.band().active_slots();
            let own: Vec<_> = slots
                .iter()
                .map(|slot| {
                    let eid = pairs.iter().position(|&p| p == working[slot.edge]);
                    (slot.lo, slot.hi, sample.edge_features[eid.unwrap()])
                })
                .collect();
            assert!(own.iter().any(|s| s.2 == pair_feat), "{drop}");
            assert_eq!(MegaSegment::build(&sample, &sched).slots, own, "{drop}");
        }
    }

    #[test]
    fn mega_band_carries_every_message_in_slot_order() {
        let ss = samples();
        let schedules: Vec<_> = ss
            .iter()
            .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
            .collect();
        let mega = Batch::mega(&ss, &schedules);
        let idx = &mega.indices;
        let Route::Band(band) = &idx.route else {
            panic!("a MEGA batch has a band")
        };
        assert_eq!(band.message_count(), idx.msg_count());
        assert_eq!(
            (band.n_nodes, band.node_of.len()),
            (idx.n_nodes, idx.work_rows)
        );
        // Each sample's active slots and path, offset by the rows before it.
        let (mut slots, mut node_of) = (Vec::new(), Vec::new());
        let mut node_offset = 0;
        for (s, sched) in ss.iter().zip(&schedules) {
            let pos_offset = node_of.len();
            for slot in sched.band().active_slots() {
                let (lo, hi) = (pos_offset + slot.lo, pos_offset + slot.hi);
                slots.push((lo, hi, slots.len()));
            }
            node_of.extend(sched.gather_index().iter().map(|&v| node_offset + v));
            node_offset += s.graph.node_count();
        }
        let stitched: Vec<_> = band.slots.iter().map(|s| (s.lo, s.hi, s.edge)).collect();
        assert_eq!(stitched, slots);
        assert_eq!(*band.node_of, node_of);
        // Message `2j` runs `lo → hi` of slot `j`, `2j + 1` back.
        let dst: Vec<usize> = band.route().messages().map(|(_, d)| d).collect();
        assert_eq!(dst, *idx.msg_dst_node);
        assert!(Arc::ptr_eq(&band.msg_dst, &idx.msg_dst_node));
        assert!(matches!(
            Batch::baseline(&ss).indices.route,
            Route::Gather(_)
        ));
    }

    #[test]
    fn parallel_batch_construction_matches_serial() {
        let ss = samples();
        let schedules: Vec<_> = ss
            .iter()
            .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
            .collect();
        let serial = Batch::mega(&ss, &schedules);
        let band = |b: &Batch| match &b.indices.route {
            Route::Band(band) => (band.slots.clone(), band.node_of.clone(), band.n_nodes),
            Route::Gather(_) => panic!("a MEGA batch has a band"),
        };
        for threads in [1, 2, 4, 8] {
            let par = mega_core::Parallelism::pinned(threads);
            let p = Batch::mega_with(&ss, &schedules, &par);
            assert_eq!(p.node_feats, serial.node_feats, "threads={threads}");
            assert_eq!(p.graph_of_node, serial.graph_of_node);
            assert_eq!(p.graph_sizes, serial.graph_sizes);
            assert_eq!(p.indices.msg_dst_node, serial.indices.msg_dst_node);
            assert_eq!(p.indices.msg_edge_feat, serial.indices.msg_edge_feat);
            assert_eq!(p.indices.work_rows, serial.indices.work_rows);
            assert_eq!(band(&p), band(&serial));
        }
    }

    #[test]
    fn targets_round_trip() {
        let ss = samples();
        let b = Batch::baseline(&ss);
        let t = b.regression_targets();
        assert_eq!(t.shape(), (4, 1));
        for (i, s) in ss.iter().enumerate() {
            assert_eq!(t.at(i, 0), s.target.value());
        }
    }
}
