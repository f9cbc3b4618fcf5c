//! Graph batching and engine message indices.
//!
//! A [`Batch`] merges several [`GraphSample`]s into one node-id space (the
//! standard block-diagonal batching of GNN frameworks) and builds the
//! [`EngineIndices`] that route messages:
//!
//! * **Baseline**: one message per directed adjacency slot, exactly the DGL
//!   pattern.
//! * **MEGA**: work rows are path positions; one message pair per active band
//!   slot, in slot order, and the batch's stitched slot list as a
//!   [`Band`] for the layers that run on it. The attention softmax and the
//!   aggregation remain keyed by *destination node*, so with full edge
//!   coverage every node receives exactly the same multiset of messages as
//!   under the baseline — the two engines are numerically equivalent and
//!   only their memory-access shape differs.

use crate::config::EngineChoice;
use mega_core::band::BandSlot;
use mega_core::AttentionSchedule;
use mega_datasets::{GraphSample, Target};
use mega_tensor::{Band, Tape, Var};
use std::sync::Arc;

/// Message routing for one batch under one engine.
#[derive(Debug, Clone)]
pub struct EngineIndices {
    /// Which engine these indices express.
    pub engine: EngineChoice,
    /// Total nodes in the batch.
    pub n_nodes: usize,
    /// Rows of the working buffer (nodes for baseline, path positions for
    /// MEGA).
    pub work_rows: usize,
    /// For each work row, the node whose embedding it carries; `None` when
    /// work rows *are* node rows (the baseline engine), so nothing is
    /// gathered.
    pub node_to_work: Option<Arc<Vec<usize>>>,
    /// Message source work row.
    pub msg_src_work: Arc<Vec<usize>>,
    /// Message destination work row.
    pub msg_dst_work: Arc<Vec<usize>>,
    /// Message destination *node* row (softmax segments and aggregation).
    pub msg_dst_node: Arc<Vec<usize>>,
    /// Edge-feature vocabulary id per message.
    pub msg_edge_feat: Arc<Vec<usize>>,
    /// The batch's band on the MEGA engine (`None` on the baseline): the
    /// stitched active slots, slot `j` carrying messages `2j` (`lo → hi`)
    /// and `2j + 1` (`hi → lo`).
    pub band: Option<Arc<Band>>,
}

impl EngineIndices {
    /// Number of messages.
    pub fn msg_count(&self) -> usize {
        self.msg_src_work.len()
    }

    /// The node whose embedding work row `row` carries.
    pub fn node_of_work(&self, row: usize) -> usize {
        self.node_to_work.as_ref().map_or(row, |index| index[row])
    }

    /// Routes per-node rows `x` to work rows: `x` itself on the baseline
    /// engine, one `gather_rows` through `node_to_work` on MEGA.
    pub fn to_work(&self, tape: &mut Tape, x: Var) -> Var {
        match &self.node_to_work {
            Some(index) => tape.gather_rows(x, index.clone()),
            None => x,
        }
    }

    /// Routes per-node rows `x` to messages by source: node → work row →
    /// message, so MEGA's path-ordered work buffer stays on the route.
    pub fn gather_src(&self, tape: &mut Tape, x: Var) -> Var {
        let work = self.to_work(tape, x);
        tape.gather_rows(work, self.msg_src_work.clone())
    }

    /// [`EngineIndices::gather_src`], by destination.
    pub fn gather_dst(&self, tape: &mut Tape, x: Var) -> Var {
        let work = self.to_work(tape, x);
        tape.gather_rows(work, self.msg_dst_work.clone())
    }
}

/// One sample's contribution to a MEGA batch, in sample-local indices.
/// Built independently per sample (so batches can fan construction out
/// across threads) and stitched with running offsets afterwards.
struct MegaSegment {
    node_feats: Vec<usize>,
    /// Sample-local node id per path position.
    node_to_work: Vec<usize>,
    /// `(src_pos, dst_pos, dst_node, edge_feat)` per directed message.
    msgs: Vec<(usize, usize, usize, usize)>,
    n_nodes: usize,
    path_len: usize,
}

impl MegaSegment {
    fn build(s: &GraphSample, sched: &AttentionSchedule) -> Self {
        let g = &s.graph;
        let path = sched.path();
        let node_feats = (0..g.node_count()).map(|v| s.node_features[v]).collect();
        let node_to_work = sched.gather_index().to_vec();
        // Edge ids of the schedule refer to the *working* graph; when no
        // edge dropping is configured that equals the sample graph. Its
        // edge list order matches the sample's edge_features indexing.
        let working_pairs: Vec<(usize, usize)> = sched.working_graph().edges().collect();
        // `(min, max)` endpoint pair → sample edge id, sorted: each slot's
        // feature is one binary search away. Equal pairs keep ascending
        // ids, so the first sample edge joining two nodes wins.
        let unordered = |(a, b): (usize, usize)| (a.min(b), a.max(b));
        let mut sample_pairs: Vec<((usize, usize), usize)> = g
            .edges()
            .enumerate()
            .map(|(eid, pair)| (unordered(pair), eid))
            .collect();
        sample_pairs.sort_unstable();
        let mut msgs = Vec::new();
        for slot in sched.band().active_slots() {
            let (a, b) = working_pairs[slot.edge];
            // Map the working-graph edge back to the sample edge id for
            // its feature (identical when nothing was dropped).
            let key = unordered((a, b));
            let at = sample_pairs.partition_point(|&(pair, _)| pair < key);
            let feat = match sample_pairs.get(at) {
                Some(&(pair, eid)) if pair == key => s.edge_features[eid],
                _ => 0,
            };
            let (lo_node, hi_node) = (path.node_at(slot.lo), path.node_at(slot.hi));
            // Two directed messages per band slot.
            msgs.push((slot.lo, slot.hi, hi_node, feat));
            msgs.push((slot.hi, slot.lo, lo_node, feat));
        }
        MegaSegment {
            node_feats,
            node_to_work,
            msgs,
            n_nodes: g.node_count(),
            path_len: path.len(),
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
        let n_nodes = offset;
        let msg_dst_rc = Arc::new(msg_dst);
        Batch {
            node_feats: Arc::new(node_feats),
            graph_of_node: Arc::new(graph_of_node),
            graph_sizes,
            targets,
            indices: EngineIndices {
                engine: EngineChoice::Baseline,
                n_nodes,
                work_rows: n_nodes,
                node_to_work: None,
                msg_src_work: Arc::new(msg_src),
                msg_dst_work: msg_dst_rc.clone(),
                msg_dst_node: msg_dst_rc,
                msg_edge_feat: Arc::new(msg_edge),
                band: None,
            },
        }
    }

    /// Builds a MEGA batch from samples and their preprocessed schedules
    /// (aligned by index).
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
        let mut node_to_work = Vec::new();
        let mut msg_src = Vec::new();
        let mut msg_dst = Vec::new();
        let mut msg_dst_node = Vec::new();
        let mut msg_edge = Vec::new();
        let mut slots = Vec::new();
        let mut node_offset = 0usize;
        let mut pos_offset = 0usize;
        for (gi, (seg, s)) in segments.into_iter().zip(samples).enumerate() {
            node_feats.extend_from_slice(&seg.node_feats);
            graph_of_node.extend(std::iter::repeat_n(gi, seg.n_nodes));
            node_to_work.extend(seg.node_to_work.iter().map(|&v| node_offset + v));
            for (i, &(src, dst, dst_node, feat)) in seg.msgs.iter().enumerate() {
                msg_src.push(pos_offset + src);
                msg_dst.push(pos_offset + dst);
                msg_dst_node.push(node_offset + dst_node);
                msg_edge.push(feat);
                // Message `2j` is slot `j`'s `lo → hi`; the slot's edge is
                // its index in the batch.
                if i % 2 == 0 {
                    slots.push(BandSlot {
                        lo: pos_offset + src,
                        hi: pos_offset + dst,
                        edge: slots.len(),
                    });
                }
            }
            graph_sizes.push(seg.n_nodes);
            targets.push(s.target);
            node_offset += seg.n_nodes;
            pos_offset += seg.path_len;
        }
        let (node_to_work, msg_dst_node) = (Arc::new(node_to_work), Arc::new(msg_dst_node));
        let band = Band {
            slots: Arc::new(slots),
            node_of: node_to_work.clone(),
            msg_dst: msg_dst_node.clone(),
            n_nodes: node_offset,
        };
        Batch {
            node_feats: Arc::new(node_feats),
            graph_of_node: Arc::new(graph_of_node),
            graph_sizes,
            targets,
            indices: EngineIndices {
                engine: EngineChoice::Mega,
                n_nodes: node_offset,
                work_rows: pos_offset,
                node_to_work: Some(node_to_work),
                msg_src_work: Arc::new(msg_src),
                msg_dst_work: Arc::new(msg_dst),
                msg_dst_node,
                msg_edge_feat: Arc::new(msg_edge),
                band: Some(Arc::new(band)),
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
        for i in 0..b.indices.msg_count() {
            let s = b.indices.msg_src_work[i];
            let d = b.indices.msg_dst_node[i];
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
            for i in 0..b.indices.msg_count() {
                let src_node = b.indices.node_of_work(b.indices.msg_src_work[i]);
                m.entry(b.indices.msg_dst_node[i])
                    .or_default()
                    .push((src_node, b.indices.msg_edge_feat[i]));
            }
            for v in m.values_mut() {
                v.sort_unstable();
            }
            m
        };
        assert_eq!(collect(&base), collect(&mega));
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
        let band = idx.band.as_ref().expect("a MEGA batch has a band");
        assert_eq!(band.message_count(), idx.msg_count());
        assert_eq!(band.n_nodes, idx.n_nodes);
        for (j, s) in band.slots.iter().enumerate() {
            assert_eq!(
                (s.lo, s.hi),
                (idx.msg_src_work[2 * j], idx.msg_dst_work[2 * j])
            );
            assert_eq!(
                (s.hi, s.lo),
                (idx.msg_src_work[2 * j + 1], idx.msg_dst_work[2 * j + 1])
            );
            assert_eq!(band.node_of[s.lo], band.msg_dst[2 * j + 1]);
            assert_eq!(band.node_of[s.hi], band.msg_dst[2 * j]);
        }
        assert!(Batch::baseline(&ss).indices.band.is_none());
    }

    #[test]
    fn parallel_batch_construction_matches_serial() {
        let ss = samples();
        let schedules: Vec<_> = ss
            .iter()
            .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
            .collect();
        let serial = Batch::mega(&ss, &schedules);
        for threads in [1, 2, 4, 8] {
            let par = mega_core::Parallelism::pinned(threads);
            let p = Batch::mega_with(&ss, &schedules, &par);
            assert_eq!(p.node_feats, serial.node_feats, "threads={threads}");
            assert_eq!(p.graph_of_node, serial.graph_of_node);
            assert_eq!(p.graph_sizes, serial.graph_sizes);
            assert_eq!(p.indices.node_to_work, serial.indices.node_to_work);
            assert_eq!(p.indices.msg_src_work, serial.indices.msg_src_work);
            assert_eq!(p.indices.msg_dst_work, serial.indices.msg_dst_work);
            assert_eq!(p.indices.msg_dst_node, serial.indices.msg_dst_node);
            assert_eq!(p.indices.msg_edge_feat, serial.indices.msg_edge_feat);
            assert_eq!(p.indices.work_rows, serial.indices.work_rows);
            let slots = |b: &Batch| b.indices.band.as_ref().map(|band| band.slots.clone());
            assert_eq!(slots(&p), slots(&serial));
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
