//! Integration tests asserting the *directional* claims of every paper
//! experiment — the properties EXPERIMENTS.md reports.

use mega::core::{preprocess, revisit_lower_bound, traverse, MegaConfig, WindowPolicy};
use mega::datasets::{csl, zinc, DatasetSpec};
use mega::dist::{edge_cut_volume, hash_partition, path_partition_volume};
use mega::gnn::{cost, EngineChoice, GnnConfig, ModelKind};
use mega::gpu_sim::{EpochCost, KernelKind};
use mega::graph::generate;
use mega::wl::{global_similarity, path_similarity};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The modeled cost of one step over a batch of 64 ZINC-like graphs, for a
/// two-layer `kind` model of width `hidden`.
fn costed(kind: ModelKind, hidden: usize, engine: EngineChoice) -> EpochCost {
    let ds = zinc(&DatasetSpec {
        train: 64,
        val: 1,
        test: 1,
        seed: 77,
    });
    let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(hidden)
        .with_layers(2);
    cost::modeled_epoch(&ds, &cfg, engine, 64, &MegaConfig::default())
}

/// Fig. 4: sgemm SM efficiency dominates the graph kernels.
#[test]
fn fig04_sgemm_efficiency_dominates() {
    let cost = costed(ModelKind::GraphTransformer, 128, EngineChoice::Baseline);
    let r = &cost.report;
    let sgemm = r.kernel(KernelKind::Sgemm).unwrap().sm_efficiency;
    for k in [
        KernelKind::CubSort,
        KernelKind::DglGather,
        KernelKind::DglScatter,
    ] {
        let eff = r.kernel(k).unwrap().sm_efficiency;
        assert!(sgemm > eff, "{k}: sgemm {sgemm} vs {eff}");
    }
}

/// Fig. 5: GT spends a larger time share on graph operations than GCN.
#[test]
fn fig05_gt_more_graph_bound_than_gcn() {
    let gcn = costed(ModelKind::GatedGcn, 128, EngineChoice::Baseline);
    let gt = costed(ModelKind::GraphTransformer, 128, EngineChoice::Baseline);
    assert!(gt.report.graph_op_time_share() > gcn.report.graph_op_time_share());
    assert!(gt.report.sgemm_time_share() < gcn.report.sgemm_time_share() + 0.15);
}

/// Fig. 6: graph kernels stall more than sgemm.
#[test]
fn fig06_graph_kernels_stall() {
    let cost = costed(ModelKind::GraphTransformer, 128, EngineChoice::Baseline);
    let r = &cost.report;
    let sgemm_stall = r.kernel(KernelKind::Sgemm).unwrap().stall_pct;
    let gather_stall = r.kernel(KernelKind::DglGather).unwrap().stall_pct;
    assert!(
        gather_stall > sgemm_stall + 0.2,
        "gather {gather_stall} vs sgemm {sgemm_stall}"
    );
}

/// Fig. 8: 1-hop exactness; path beats global attention on sparse graphs.
#[test]
fn fig08_similarity_shape() {
    let mut rng = StdRng::seed_from_u64(8);
    let g = generate::erdos_renyi(64, 0.05, &mut rng).unwrap();
    let s = preprocess(&g, &MegaConfig::default()).unwrap();
    assert!((path_similarity(&g, &s, 1) - 1.0).abs() < 1e-12);
    for hops in 1..=2 {
        assert!(path_similarity(&g, &s, hops) > global_similarity(&g, hops));
    }
}

/// Fig. 9: Mega's aggregate SM efficiency higher, stalls lower, for both
/// models.
#[test]
fn fig09_mega_aggregates_better() {
    for kind in [ModelKind::GatedGcn, ModelKind::GraphTransformer] {
        let dgl = costed(kind, 128, EngineChoice::Baseline);
        let mega = costed(kind, 128, EngineChoice::Mega);
        assert!(mega.report.aggregate_sm_efficiency() > dgl.report.aggregate_sm_efficiency());
        assert!(mega.report.aggregate_stall_pct() < dgl.report.aggregate_stall_pct());
    }
}

/// Fig. 10: Mega's epoch is faster and more sgemm-occupied; GT gains at
/// least as much as GCN.
#[test]
fn fig10_runtime_shape() {
    let mut speedups = Vec::new();
    for kind in [ModelKind::GatedGcn, ModelKind::GraphTransformer] {
        let dgl = costed(kind, 64, EngineChoice::Baseline);
        let mega = costed(kind, 64, EngineChoice::Mega);
        assert!(mega.epoch_seconds < dgl.epoch_seconds);
        assert!(mega.report.sgemm_time_share() > dgl.report.sgemm_time_share());
        speedups.push(dgl.epoch_seconds / mega.epoch_seconds);
    }
    let (gcn_speedup, gt_speedup) = (speedups[0], speedups[1]);
    assert!(
        gt_speedup > gcn_speedup * 0.95,
        "gcn {gcn_speedup} vs gt {gt_speedup}"
    );
}

/// §III-B: revisits respect the paper's lower-bound formula direction —
/// larger windows need fewer revisits.
#[test]
fn window_bound_monotonicity() {
    let mut rng = StdRng::seed_from_u64(13);
    let g = generate::barabasi_albert(120, 3, &mut rng).unwrap();
    let mut prev_bound = usize::MAX;
    let mut prev_revisits = usize::MAX;
    for w in [1usize, 2, 4, 8] {
        let bound = revisit_lower_bound(&g.degrees(), w);
        let t = traverse(
            &g,
            &MegaConfig::default().with_window(WindowPolicy::Fixed(w)),
        )
        .unwrap();
        assert!(bound <= prev_bound);
        assert!(t.revisits <= prev_revisits.saturating_add(4), "window {w}");
        prev_bound = bound;
        prev_revisits = t.revisits;
    }
}

/// §IV-B6: O(k) communication for the path partition.
#[test]
fn dist_comm_is_linear_in_k() {
    let mut rng = StdRng::seed_from_u64(14);
    let g = generate::barabasi_albert(400, 3, &mut rng).unwrap();
    let s = preprocess(&g, &MegaConfig::default()).unwrap();
    for k in [2usize, 8, 32] {
        assert_eq!(path_partition_volume(&s, k).comm_pairs, k - 1);
    }
    let cut = edge_cut_volume(&g, &hash_partition(&g, 32), 32);
    assert!(cut.comm_pairs > 31);
}

/// CSL's identical-degree property survives batching into the cost model
/// (the Fig. 5 "CSL stays flat" observation needs it).
#[test]
fn csl_batches_are_uniform() {
    let ds = csl(&DatasetSpec::tiny(15));
    let sizes: Vec<usize> = ds.train.iter().map(|s| s.graph.node_count()).collect();
    assert!(sizes.iter().all(|&n| n == sizes[0]));
    let slots: Vec<usize> = ds.train.iter().map(|s| 2 * s.graph.edge_count()).collect();
    assert!(slots.iter().all(|&m| m == slots[0]));
}
