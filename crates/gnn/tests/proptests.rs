//! Property-based tests for batching and engine equivalence, and for the
//! band ops — Graph Transformer attention, GatedGCN's gated aggregate —
//! against the unfused compositions they replace.

use mega_core::{preprocess, CandidatePolicy, MegaConfig, WindowPolicy};
use mega_datasets::{GraphSample, Target};
use mega_exec::{Backend, BufferPool, ReferenceBackend, SimdBackend};
use mega_gnn::batch::Route;
use mega_gnn::nn::Binder;
use mega_gnn::{Batch, EngineIndices, Gnn, GnnConfig, ModelKind};
use mega_graph::{Graph, GraphBuilder};
use mega_tensor::{Band, ParamStore, Tape, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

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

/// A hub with nine spokes and one isolated node. At a window of at most 3
/// the hub sits at several path positions, so the batch revisits a node,
/// and the isolated node receives no message.
fn hub_sample() -> GraphSample {
    let mut b = GraphBuilder::undirected(11);
    for leaf in 1..10 {
        b.edge(0, leaf).unwrap();
    }
    let graph = b.build().unwrap();
    GraphSample {
        node_features: vec![0; 11],
        edge_features: vec![0; graph.edge_count()],
        target: Target::Regression(1.0),
        graph,
    }
}

/// The band of a MEGA batch.
fn band_of(idx: &EngineIndices) -> &Arc<Band> {
    match &idx.route {
        Route::Band(band) => band,
        Route::Gather(_) => panic!("a MEGA batch has a band"),
    }
}

/// The source node of every message, in message order: the baseline's
/// gather index, or read off a MEGA batch's band.
fn message_sources(idx: &EngineIndices) -> Arc<Vec<usize>> {
    match &idx.route {
        Route::Gather(src) => src.clone(),
        Route::Band(band) => Arc::new(band.route().messages().map(|(s, _)| s).collect()),
    }
}

/// A MEGA batch of `samples` plus the hub, at a fixed `window` and an edge
/// drop rate, checked to revisit a node and leave one without messages.
fn revisiting_batch(
    mut samples: Vec<GraphSample>,
    window: usize,
    edge_drop: f64,
    seed: u32,
) -> Result<Batch, TestCaseError> {
    samples.push(hub_sample());
    let cfg = MegaConfig::default()
        .with_window(WindowPolicy::Fixed(window))
        .with_edge_drop(edge_drop)
        .with_seed(u64::from(seed));
    let schedules: Vec<_> = samples
        .iter()
        .map(|s| preprocess(&s.graph, &cfg).unwrap())
        .collect();
    let batch = Batch::mega(&samples, &schedules);
    let idx = &batch.indices;
    prop_assert!(idx.work_rows > idx.n_nodes, "some node must be revisited");
    let silent = (0..idx.n_nodes)
        .filter(|v| !idx.msg_dst_node.contains(v))
        .count();
    prop_assert!(silent > 0, "some node must receive no message");
    Ok(batch)
}

/// Values in `(-0.5, 0.5)` that differ from element to element.
fn varied(rows: usize, cols: usize, seed: u32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((x >> 8) % 1000) as f32 / 1000.0 - 0.5
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// One forward and backward of Graph Transformer attention on a MEGA batch
/// under `backend`: through the two band ops when `fused`, else through the
/// unfused gather → `mul` → `mul` → `scale` → `row_block_sums` →
/// `segment_softmax` → `mul_col_broadcast` → `scatter_add_rows` chain the
/// baseline engine runs. Returns `e_what`, `h_agg`, then the gradients of
/// `ee`, `q`, `k` and `v`.
fn attention_run(
    batch: &Batch,
    backend: Arc<dyn Backend>,
    heads: usize,
    d: usize,
    seed: u32,
    fused: bool,
) -> Vec<Tensor> {
    let idx = &batch.indices;
    let (n, m) = (idx.n_nodes, idx.msg_count());
    let scale = 1.0 / ((d / heads) as f32).sqrt();
    let mut tape = Tape::with_exec(backend, Arc::new(BufferPool::new()));
    let q = tape.leaf(varied(n, d, seed));
    let k = tape.leaf(varied(n, d, seed + 1));
    let v = tape.leaf(varied(n, d, seed + 2));
    let ee = tape.leaf(varied(m, d, seed + 3));
    let (e_what, h_agg) = if fused {
        let band = band_of(idx);
        let e_what = tape.band_edge_scores(q, k, ee, band, scale);
        (e_what, tape.band_attend(e_what, v, band, heads))
    } else {
        let src = message_sources(idx);
        let q_dst = tape.gather_rows(q, idx.msg_dst_node.clone());
        let k_src = tape.gather_rows(k, src.clone());
        let v_src = tape.gather_rows(v, src);
        let qk = tape.mul(q_dst, k_src);
        let qke = tape.mul(qk, ee);
        let e_what = tape.scale(qke, scale);
        let score = tape.row_block_sums(e_what, heads);
        let attn = tape.segment_softmax(score, idx.msg_dst_node.clone(), n);
        let weighted = tape.mul_col_broadcast(v_src, attn);
        (
            e_what,
            tape.scatter_add_rows(weighted, idx.msg_dst_node.clone(), n),
        )
    };
    // Weigh every output element differently, and let `e_what` reach the
    // loss on its own too, as the edge stream's `O_e` does.
    let (wh, we) = (
        tape.leaf(varied(n, d, seed + 4)),
        tape.leaf(varied(m, d, seed + 5)),
    );
    let (lh, le) = (tape.mul(h_agg, wh), tape.mul(e_what, we));
    let (sh, se) = (tape.mean(lh), tape.mean(le));
    let loss = tape.add(sh, se);
    // Values go as the backward pass walks: read them first.
    let mut out = vec![tape.value(e_what).clone(), tape.value(h_agg).clone()];
    let grads = tape.backward(loss);
    out.extend([ee, q, k, v].map(|leaf| grads.wrt(leaf).clone()));
    out
}

/// One forward and backward of GatedGCN's edge pre-activation and gated
/// aggregate on a MEGA batch under `backend`: through the two band ops when
/// `fused`, else through the unfused gather → `add` → `add` → `sigmoid` →
/// `mul` → `scatter_add_rows` ×2 → `div_eps` chain the baseline engine
/// runs. Returns `ê`, the aggregate, then the gradients of `ce`, `ah`, `bh`
/// and `vh`.
fn gate_run(
    batch: &Batch,
    backend: Arc<dyn Backend>,
    d: usize,
    seed: u32,
    fused: bool,
) -> Vec<Tensor> {
    let idx = &batch.indices;
    let (n, m) = (idx.n_nodes, idx.msg_count());
    let mut tape = Tape::with_exec(backend, Arc::new(BufferPool::new()));
    // Scaled past ±4, so some gates saturate towards 0 and 1.
    let ah = tape.leaf(varied(n, d, seed).scale(10.0));
    let bh = tape.leaf(varied(n, d, seed + 1));
    let vh = tape.leaf(varied(n, d, seed + 2));
    let ce = tape.leaf(varied(m, d, seed + 3));
    let (e_hat, agg) = if fused {
        let band = band_of(idx);
        let e_hat = tape.band_edge_sum(ah, bh, ce, band);
        (e_hat, tape.band_gate(e_hat, vh, band, 1e-6))
    } else {
        let src = message_sources(idx);
        let ah_src = tape.gather_rows(ah, src.clone());
        let bh_dst = tape.gather_rows(bh, idx.msg_dst_node.clone());
        let vh_src = tape.gather_rows(vh, src);
        let sum = tape.add(ah_src, bh_dst);
        let e_hat = tape.add(sum, ce);
        let sigma = tape.sigmoid(e_hat);
        let gated = tape.mul(sigma, vh_src);
        let num = tape.scatter_add_rows(gated, idx.msg_dst_node.clone(), n);
        let den = tape.scatter_add_rows(sigma, idx.msg_dst_node.clone(), n);
        (e_hat, tape.div_eps(num, den, 1e-6))
    };
    // Weigh every output element differently, and let `ê` reach the loss on
    // its own too, as the edge stream's batch norm does.
    let (wa, we) = (
        tape.leaf(varied(n, d, seed + 4)),
        tape.leaf(varied(m, d, seed + 5)),
    );
    let (la, le) = (tape.mul(agg, wa), tape.mul(e_hat, we));
    let (sa, se) = (tape.mean(la), tape.mean(le));
    let loss = tape.add(sa, se);
    // Values go as the backward pass walks: read them first.
    let mut out = vec![tape.value(e_hat).clone(), tape.value(agg).clone()];
    let grads = tape.backward(loss);
    out.extend([ce, ah, bh, vh].map(|leaf| grads.wrt(leaf).clone()));
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn max_abs(t: &Tensor) -> f32 {
    t.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The band ops on random MEGA batches — revisited hubs, a node with no
    /// incoming message, edge-dropped schedules, 1, 2 and 4 heads of 1, 5,
    /// 16 and 17 features — against the unfused composition on the same
    /// batch: forward values and the gradient of `ee` bit for bit, the
    /// gradients of `q`, `k` and `v` within `1e-4 · max|g_ref|` (DESIGN.md
    /// §7: they sum each node's messages in one group instead of per path
    /// position), and every SIMD tier bit for bit with the reference.
    #[test]
    fn band_attention_matches_the_unfused_composition(
        samples in proptest::collection::vec(arb_sample(), 0..3),
        window in 1usize..4,
        edge_drop in prop_oneof![Just(0.0f64).boxed(), (0.1f64..0.5).boxed()],
        seed in 0u32..1000,
        heads in prop_oneof![Just(1usize), Just(2), Just(4)],
        head_dim in prop_oneof![Just(1usize), Just(5), Just(16), Just(17)],
    ) {
        let batch = revisiting_batch(samples, window, edge_drop, seed)?;
        let d = heads * head_dim;
        let reference: Arc<dyn Backend> = Arc::new(ReferenceBackend);
        let fused = attention_run(&batch, reference.clone(), heads, d, seed, true);
        let unfused = attention_run(&batch, reference, heads, d, seed, false);
        for (what, i) in [("e_what", 0), ("h_agg", 1), ("d ee", 2)] {
            prop_assert_eq!(bits(&fused[i]), bits(&unfused[i]), "{}", what);
        }
        for (what, i) in [("d q", 3), ("d k", 4), ("d v", 5)] {
            let (g, g_ref) = (&fused[i], &unfused[i]);
            let err = max_abs(&g.sub(g_ref));
            prop_assert!(err <= 1e-4 * max_abs(g_ref), "{what} off by {err:e}");
        }
        for tier in SimdBackend::all_on_host() {
            let label = format!("{} x{}", tier.tier(), tier.lane_width());
            let simd = attention_run(&batch, Arc::new(tier), heads, d, seed, true);
            for (t, t_ref) in simd.iter().zip(&fused) {
                prop_assert_eq!(bits(t), bits(t_ref), "{}", label);
            }
        }
    }

    /// GatedGCN's two band ops on random MEGA batches — revisited hubs, a
    /// node with no incoming message, edge-dropped schedules, 1, 5, 16 and
    /// 17 features, gates near saturation — against the unfused composition
    /// on the same batch: forward values and the gradient of `ce` bit for
    /// bit, the gradients of `ah`, `bh` and `vh` within `1e-4 · max|g_ref|`
    /// (DESIGN.md §7: they sum each node's messages in one group instead of
    /// per message), and every SIMD tier bit for bit with the reference.
    #[test]
    fn gated_band_matches_the_unfused_composition(
        samples in proptest::collection::vec(arb_sample(), 0..3),
        window in 1usize..4,
        edge_drop in prop_oneof![Just(0.0f64).boxed(), (0.1f64..0.5).boxed()],
        seed in 0u32..1000,
        d in prop_oneof![Just(1usize), Just(5), Just(16), Just(17)],
    ) {
        let batch = revisiting_batch(samples, window, edge_drop, seed)?;
        let reference: Arc<dyn Backend> = Arc::new(ReferenceBackend);
        let fused = gate_run(&batch, reference.clone(), d, seed, true);
        let unfused = gate_run(&batch, reference, d, seed, false);
        for (what, i) in [("e_hat", 0), ("agg", 1), ("d ce", 2)] {
            prop_assert_eq!(bits(&fused[i]), bits(&unfused[i]), "{}", what);
        }
        for (what, i) in [("d ah", 3), ("d bh", 4), ("d vh", 5)] {
            let (g, g_ref) = (&fused[i], &unfused[i]);
            let err = max_abs(&g.sub(g_ref));
            prop_assert!(err <= 1e-4 * max_abs(g_ref), "{what} off by {err:e}");
        }
        for tier in SimdBackend::all_on_host() {
            let label = format!("{} x{}", tier.tier(), tier.lane_width());
            let simd = gate_run(&batch, Arc::new(tier), d, seed, true);
            for (t, t_ref) in simd.iter().zip(&fused) {
                prop_assert_eq!(bits(t), bits(t_ref), "{}", label);
            }
        }
    }

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
            let sources = message_sources(&b.indices);
            for (&src, &dst) in sources.iter().zip(b.indices.msg_dst_node.iter()) {
                m.entry(dst).or_default().push(src);
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
        prop_assert!(message_sources(idx).iter().all(|&i| i < idx.n_nodes));
        prop_assert!(idx.msg_dst_node.iter().all(|&i| i < idx.n_nodes));
        prop_assert!(base.graph_of_node.iter().all(|&g| g < base.n_graphs()));
    }
}
