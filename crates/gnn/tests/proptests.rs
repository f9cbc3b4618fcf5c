//! Property-based tests for batching and engine equivalence.

use mega_core::{preprocess, CandidatePolicy, MegaConfig, WindowPolicy};
use mega_datasets::{GraphSample, Target};
use mega_gnn::nn::Binder;
use mega_gnn::{Batch, Gnn, GnnConfig, ModelKind};
use mega_graph::{Graph, GraphBuilder};
use mega_tensor::{ParamStore, Tape};
use proptest::prelude::*;

/// Arbitrary connected-ish sample with categorical features.
fn arb_sample() -> impl Strategy<Value = GraphSample> {
    (3usize..14).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), n..2 * n),
            proptest::collection::vec(0usize..4, n),
            0usize..4,
        )
            .prop_map(move |(pairs, node_features, _)| {
                let mut b = GraphBuilder::undirected(n);
                b.dedup(true);
                // Spanning chain guarantees some edges.
                for v in 1..n {
                    b.edge(v - 1, v).unwrap();
                }
                for (a, c) in pairs {
                    b.edge(a, c).unwrap();
                }
                let graph: Graph = b.build().unwrap();
                let edge_features = vec![0usize; graph.edge_count()];
                GraphSample {
                    node_features,
                    edge_features,
                    target: Target::Regression(1.0),
                    graph,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Baseline and MEGA batches route identical per-node message multisets
    /// for arbitrary graphs, window sizes and policies.
    #[test]
    fn message_multisets_match(
        samples in proptest::collection::vec(arb_sample(), 1..4),
        window in 1usize..4,
        policy_ix in 0usize..3,
    ) {
        let policy = [
            CandidatePolicy::CorrelateArgmax,
            CandidatePolicy::FirstCandidate,
            CandidatePolicy::Random,
        ][policy_ix];
        let cfg = MegaConfig::default()
            .with_window(WindowPolicy::Fixed(window))
            .with_policy(policy);
        let schedules: Vec<_> = samples
            .iter()
            .map(|s| preprocess(&s.graph, &cfg).unwrap())
            .collect();
        let base = Batch::baseline(&samples);
        let mega = Batch::mega(&samples, &schedules);
        prop_assert_eq!(base.indices.msg_count(), mega.indices.msg_count());

        let collect = |b: &Batch| {
            let mut m: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
            for i in 0..b.indices.msg_count() {
                let src = b.indices.node_of_work(b.indices.msg_src_work[i]);
                m.entry(b.indices.msg_dst_node[i]).or_default().push(src);
            }
            for v in m.values_mut() {
                v.sort_unstable();
            }
            m
        };
        prop_assert_eq!(collect(&base), collect(&mega));
    }

    /// Forward passes agree between engines for arbitrary small batches.
    #[test]
    fn forward_passes_agree(samples in proptest::collection::vec(arb_sample(), 1..3)) {
        let cfg = GnnConfig::new(ModelKind::GatedGcn, 4, 1, 1)
            .with_hidden(8)
            .with_layers(2)
            .with_seed(3);
        let mut store = ParamStore::new();
        let model = Gnn::new(&mut store, cfg);
        let schedules: Vec<_> = samples
            .iter()
            .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
            .collect();
        let base = Batch::baseline(&samples);
        let mega = Batch::mega(&samples, &schedules);

        let mut tb = Tape::new();
        let mut bb = Binder::new();
        let pb = model.forward(&mut tb, &mut bb, &store, &base);
        let mut tm = Tape::new();
        let mut bm = Binder::new();
        let pm = model.forward(&mut tm, &mut bm, &store, &mega);
        for (a, b) in tb.value(pb).as_slice().iter().zip(tm.value(pm).as_slice()) {
            prop_assert!((a - b).abs() < 5e-3 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    /// Every MEGA message carries the feature of the sample edge its band
    /// slot maps back to, exactly as a scan of the sample's edge list finds
    /// it (first match, either orientation) — with and without edge
    /// dropping, where some working edges are gone.
    #[test]
    fn mega_edge_features_match_the_scan(
        samples in proptest::collection::vec(arb_sample(), 1..4),
        seed in 0u64..1000,
        edge_drop in prop_oneof![Just(0.0f64).boxed(), (0.05f64..0.5).boxed()],
    ) {
        let samples: Vec<GraphSample> = samples
            .into_iter()
            .enumerate()
            .map(|(i, mut s)| {
                let salt = i + seed as usize;
                s.edge_features = (0..s.graph.edge_count()).map(|e| (7 * e + salt) % 11).collect();
                s
            })
            .collect();
        let cfg = MegaConfig::default().with_edge_drop(edge_drop).with_seed(seed);
        let schedules: Vec<_> = samples
            .iter()
            .map(|s| preprocess(&s.graph, &cfg).unwrap())
            .collect();
        let mut scanned = Vec::new();
        for (s, sched) in samples.iter().zip(&schedules) {
            let working: Vec<(usize, usize)> = sched.working_graph().edges().collect();
            let sample: Vec<(usize, usize)> = s.graph.edges().collect();
            for slot in sched.band().active_slots() {
                let (a, b) = working[slot.edge];
                let feat = sample
                    .iter()
                    .position(|&p| p == (a, b) || p == (b, a))
                    .map_or(0, |eid| s.edge_features[eid]);
                scanned.extend([feat, feat]);
            }
        }
        let mega = Batch::mega(&samples, &schedules);
        prop_assert_eq!(mega.indices.msg_edge_feat.as_slice(), scanned.as_slice());
    }

    /// Batch indices are always in range.
    #[test]
    fn batch_indices_in_range(samples in proptest::collection::vec(arb_sample(), 1..4)) {
        let base = Batch::baseline(&samples);
        let idx = &base.indices;
        prop_assert!(idx.msg_src_work.iter().all(|&i| i < idx.work_rows));
        prop_assert!(idx.msg_dst_work.iter().all(|&i| i < idx.work_rows));
        prop_assert!(idx.msg_dst_node.iter().all(|&i| i < idx.n_nodes));
        prop_assert!(base.graph_of_node.iter().all(|&g| g < base.n_graphs()));
    }
}
