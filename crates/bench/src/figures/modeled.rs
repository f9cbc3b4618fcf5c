//! Figures computed by the GPU cost model: every number here is a modeled
//! GTX 1080 (or, in the device ablation, GTX 1050 / RTX 3080) quantity, not
//! a measurement. The one exception is the partition figure's exact
//! communication volumes, which sit beside the 10 GbE speedups they feed.

use super::Figure;
use crate::bench_datasets;
use mega_core::{preprocess, MegaConfig};
use mega_datasets::{zinc, Dataset, DatasetSpec};
use mega_dist::{
    bfs_partition, edge_cut_volume, epoch_scaling, hash_partition, path_partition_volume,
    ClusterConfig, CommStats,
};
use mega_gnn::{cost, EngineChoice, GnnConfig, ModelKind};
use mega_gpu_sim::{
    BatchTopology, DeviceConfig, EngineKind, EpochCost, GnnCostModel, KernelKind, ModelSpec,
    Profiler,
};
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODELS: [ModelKind; 2] = [ModelKind::GatedGcn, ModelKind::GraphTransformer];

/// The modeled epoch of a two-layer `kind` model of width `hidden` on `ds`.
fn profile(
    ds: &Dataset,
    kind: ModelKind,
    engine: EngineChoice,
    batch: usize,
    hidden: usize,
) -> EpochCost {
    let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(hidden)
        .with_layers(2);
    cost::modeled_epoch(ds, &cfg, engine, batch, &MegaConfig::default())
}

/// One graph-attention pass: gather source rows, gather destination rows,
/// scatter-add messages — the three index-driven kernels of a DGL layer.
fn graph_attention_seconds(n: usize, m: usize, feat: usize, rng: &mut StdRng) -> f64 {
    let mut p = Profiler::new(DeviceConfig::gtx_1080());
    let nodes = p.alloc(n * feat * 4);
    let keys = p.alloc(2 * m * 4);
    let src: Vec<usize> = (0..2 * m).map(|_| rng.gen_range(0..n)).collect();
    let dst: Vec<usize> = (0..2 * m).map(|_| rng.gen_range(0..n)).collect();
    // The DGL baseline sorts embeddings by index before fetching neighbors.
    p.launch_sort(keys, 2 * m);
    p.launch_gather(nodes, &src, feat, 2 * m);
    p.launch_gather(nodes, &dst, feat, 2 * m);
    p.launch_scatter(nodes, &dst, feat, n);
    p.elapsed_seconds()
}

/// One global-attention pass: `S = H·Hᵀ` (n×n×f), softmax over n², `O = S·H`
/// (n×f×n) — all dense.
fn global_attention_seconds(n: usize, feat: usize) -> f64 {
    let mut p = Profiler::new(DeviceConfig::gtx_1080());
    let h = p.alloc(n * feat * 4);
    let s = p.alloc(n * n * 4);
    let o = p.alloc(n * feat * 4);
    p.launch_sgemm(h, h, s, n, n, feat);
    p.launch_elementwise(s, n * n, 8); // softmax
    p.launch_sgemm(s, h, o, n, feat, n);
    p.elapsed_seconds()
}

/// Figure 1b: graph attention vs global attention time on random graphs of
/// fixed sparsity. Graph attention computes less but pays scattered memory
/// access, so past the L2 working set the ratio rises above 1 and keeps
/// growing.
pub fn fig01_attention_ratio() -> Figure {
    const SPARSITY: f64 = 0.05;
    let mut rng = StdRng::seed_from_u64(1);
    let mut fig = Figure::new(
        format!("Figure 1b — graph-attention / global-attention time ratio (sparsity {SPARSITY})"),
        &[
            "nodes",
            "feat_dim",
            "edges",
            "graph_seconds",
            "global_seconds",
            "ratio",
        ],
    );
    for n in [512usize, 1024, 2048, 4096] {
        for feat in [16usize, 64, 256] {
            let m = (SPARSITY * (n * (n - 1) / 2) as f64) as usize;
            let tg = graph_attention_seconds(n, m, feat, &mut rng);
            let tf = global_attention_seconds(n, feat);
            fig.push_row(&[&n, &feat, &m, &tg, &tf, &(tg / tf)]);
        }
    }
    fig.with_claim(
        "Paper claim: ratio > 1 and growing with graph size, worst at small feature dims.",
    )
}

/// Figure 4: per-kernel SM efficiency under the DGL baseline (batch 64,
/// hidden 128): `sgemm` dwarfs the graph kernels everywhere.
pub fn fig04_sm_efficiency() -> Figure {
    let mut fig = Figure::new(
        "Figure 4 — SM efficiency per kernel (batch 64, hidden 128, DGL baseline)",
        &[
            "dataset",
            "model",
            "sgemm",
            "cub",
            "dgl_gather",
            "dgl_scatter",
        ],
    );
    for ds in bench_datasets(&DatasetSpec::small(7)) {
        for kind in MODELS {
            let cost = profile(&ds, kind, EngineChoice::Baseline, 64, 128);
            let eff = |k: KernelKind| cost.report.kernel(k).map_or(0.0, |r| r.sm_efficiency);
            fig.push_row(&[
                &ds.name,
                &kind.label(),
                &eff(KernelKind::Sgemm),
                &eff(KernelKind::CubSort),
                &eff(KernelKind::DglGather),
                &eff(KernelKind::DglScatter),
            ]);
        }
    }
    fig.with_claim("Paper claim: sgemm SM efficiency far above cub/dgl in every configuration.")
}

/// Figure 5: kernel time shares vs batch size under the DGL baseline
/// (hidden 64, batch 128 and 256).
pub fn fig05_time_share() -> Figure {
    let mut fig = Figure::new(
        "Figure 5 — kernel time shares vs batch size (hidden 64, DGL baseline)",
        &[
            "dataset",
            "model",
            "batch",
            "sgemm_share",
            "graph_ops_share",
            "memcpy_share",
            "eltwise_share",
        ],
    );
    for ds in bench_datasets(&DatasetSpec::small(5)) {
        for kind in MODELS {
            for batch in [128usize, 256] {
                let r = profile(&ds, kind, EngineChoice::Baseline, batch, 64).report;
                let share = |k: KernelKind| r.kernel(k).map_or(0.0, |x| x.time_share);
                fig.push_row(&[
                    &ds.name,
                    &kind.label(),
                    &batch,
                    &r.sgemm_time_share(),
                    &r.graph_op_time_share(),
                    &share(KernelKind::Memcpy),
                    &share(KernelKind::Elementwise),
                ]);
            }
        }
    }
    fig.with_claim(
        "Paper claims: GT spends a larger share on graph ops than GCN; sgemm share grows with batch size.",
    )
}

/// Figure 6: per-kernel global-load transactions, stall percentage and
/// invocation counts of the DGL baseline (batch 64, hidden 128).
pub fn fig06_kernel_profile() -> Figure {
    let mut fig = Figure::new(
        "Figure 6 — per-kernel profile (batch 64, hidden 128, DGL baseline)",
        &[
            "dataset",
            "model",
            "kernel",
            "invocations",
            "global_load_transactions",
            "stall_pct",
            "l2_hit_rate",
        ],
    );
    for ds in bench_datasets(&DatasetSpec::small(6)) {
        for kind in MODELS {
            let cost = profile(&ds, kind, EngineChoice::Baseline, 64, 128);
            for k in cost.report.kernels() {
                let hit = if k.load_transactions == 0 {
                    1.0
                } else {
                    k.l2_hits as f64 / k.load_transactions as f64
                };
                fig.push_row(&[
                    &ds.name,
                    &kind.label(),
                    &k.kind.label(),
                    &k.invocations,
                    &k.load_transactions,
                    &k.stall_pct,
                    &hit,
                ]);
            }
        }
    }
    fig.with_claim(
        "Paper claim: cub/dgl kernels show high stall percentages and heavy global-load traffic.",
    )
}

/// Figure 9: invocation-weighted SM efficiency and stall percentage (the
/// paper's aggregate-metric equation), Mega vs DGL (batch 64, hidden 128).
pub fn fig09_memory_metrics() -> Figure {
    let mut fig = Figure::new(
        "Figure 9 — aggregate memory metrics, Mega vs DGL (batch 64, hidden 128)",
        &[
            "dataset",
            "model",
            "engine",
            "aggregate_sm_efficiency",
            "aggregate_stall_pct",
        ],
    );
    for ds in bench_datasets(&DatasetSpec::small(9)) {
        for kind in MODELS {
            for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
                let r = profile(&ds, kind, engine, 64, 128).report;
                fig.push_row(&[
                    &ds.name,
                    &kind.label(),
                    &engine.label(),
                    &r.aggregate_sm_efficiency(),
                    &r.aggregate_stall_pct(),
                ]);
            }
        }
    }
    fig.with_claim(
        "Paper claims: Mega's SM efficiency is high and stable across datasets/models;\n\
         DGL's varies and drops hardest for GT (5x more scatter ops).",
    )
}

/// Figure 10: epoch runtime and `sgemm` share, Mega vs DGL, at batch sizes
/// 64/128/256 (hidden 64).
pub fn fig10_runtime() -> Figure {
    let mut fig = Figure::new(
        "Figure 10 — epoch runtime & sgemm occupation (hidden 64)",
        &[
            "dataset",
            "model",
            "batch",
            "dgl_epoch_seconds",
            "mega_epoch_seconds",
            "speedup",
            "dgl_sgemm_share",
            "mega_sgemm_share",
        ],
    );
    for ds in bench_datasets(&DatasetSpec::small(10)) {
        for kind in MODELS {
            for batch in [64usize, 128, 256] {
                let dgl = profile(&ds, kind, EngineChoice::Baseline, batch, 64);
                let mega = profile(&ds, kind, EngineChoice::Mega, batch, 64);
                fig.push_row(&[
                    &ds.name,
                    &kind.label(),
                    &batch,
                    &dgl.epoch_seconds,
                    &mega.epoch_seconds,
                    &(dgl.epoch_seconds / mega.epoch_seconds),
                    &dgl.report.sgemm_time_share(),
                    &mega.report.sgemm_time_share(),
                ]);
            }
        }
    }
    fig.with_claim(
        "Paper claims: Mega has lower epoch time and larger sgemm share in all settings;\n\
         GT speedups exceed GCN speedups; speedup does not grow with batch size.",
    )
}

/// Ablation: the Fig. 10 comparison on a low-end (GTX 1050-class), the
/// paper's, and a modern (RTX 3080-class) device model, one ZINC batch of
/// 64 graphs.
pub fn ablation_device() -> Figure {
    let ds = zinc(&DatasetSpec {
        train: 64,
        val: 1,
        test: 1,
        seed: 19,
    });
    let graphs: Vec<_> = ds.train.iter().map(|s| s.graph.clone()).collect();
    let schedules: Vec<_> = graphs
        .iter()
        .map(|g| preprocess(g, &MegaConfig::default()).expect("valid graph"))
        .collect();
    let base_topo = BatchTopology::from_graphs(&graphs);
    let mega_topo = BatchTopology::from_graphs_with_schedules(&graphs, &schedules);
    let mut fig = Figure::new(
        "Ablation — device sensitivity (ZINC batch 64, hidden 64)",
        &["device", "model", "dgl_ms", "mega_ms", "speedup"],
    );
    for dev in [
        DeviceConfig::gtx_1050(),
        DeviceConfig::gtx_1080(),
        DeviceConfig::rtx_3080(),
    ] {
        for spec in [
            ModelSpec::gated_gcn(64, 2),
            ModelSpec::graph_transformer(64, 2),
        ] {
            let epoch = |engine, topo| {
                GnnCostModel::new(dev.clone(), spec.clone(), engine)
                    .epoch_cost(topo, 1)
                    .epoch_seconds
            };
            let dgl = epoch(EngineKind::DglBaseline, &base_topo);
            let mega = epoch(EngineKind::Mega, &mega_topo);
            fig.push_row(&[
                &dev.name,
                &spec.name,
                &(dgl * 1e3),
                &(mega * 1e3),
                &(dgl / mega),
            ]);
        }
    }
    fig.with_claim(
        "Expected: the speedup persists across three GPU generations; the low-end part\n\
         (least latency-hiding) benefits most, the bandwidth-rich part least.",
    )
}

/// §IV-B6: communication pairs and volume for edge-cut partitioning (hash,
/// BFS locality) against MEGA's path-segment partition, which needs exactly
/// `k − 1` neighbour exchanges plus a replica-sync term from revisits. The
/// exact volumes and a modeled GT epoch feed the 10 GbE cluster model's
/// `modeled_*_speedup` columns: a prediction, not a measurement.
pub fn dist_comm_analysis() -> Figure {
    let mut rng = StdRng::seed_from_u64(6);
    let g = generate::barabasi_albert(2000, 3, &mut rng).expect("valid generator input");
    let schedule = preprocess(&g, &MegaConfig::default()).expect("valid graph");
    let spec = ModelSpec::graph_transformer(64, 2);
    let steps = 20;
    let topo = BatchTopology::from_graphs_with_schedules(
        std::slice::from_ref(&g),
        std::slice::from_ref(&schedule),
    );
    let single = GnnCostModel::new(DeviceConfig::gtx_1080(), spec.clone(), EngineKind::Mega)
        .epoch_cost(&topo, steps)
        .epoch_seconds;
    let rounds = spec.layers * 2 * steps; // layers × fwd/bwd × steps
    let cluster = ClusterConfig::ten_gbe();
    let speedup = |comm: &CommStats| epoch_scaling(single, comm, rounds, spec.hidden_dim, &cluster);
    let mut fig = Figure::new(
        format!(
            "Distributed communication analysis (BA graph, n={} m={} | path length {}, \
             expansion {:.2} | modeled_*_speedup: 10 GbE projection of a {:.2} ms modeled \
             GTX 1080 GT epoch, not a measurement)",
            g.node_count(),
            g.edge_count(),
            schedule.path().len(),
            schedule.path().expansion_factor(),
            single * 1e3
        ),
        &[
            "partitions",
            "hash_pairs",
            "hash_volume",
            "bfs_pairs",
            "bfs_volume",
            "path_pairs",
            "path_volume",
            "path_replicas",
            "modeled_cut_speedup",
            "modeled_path_speedup",
        ],
    );
    let mut replicas = 0;
    for k in [2usize, 4, 8, 16, 32, 64] {
        let hash = edge_cut_volume(&g, &hash_partition(&g, k), k);
        let bfs = edge_cut_volume(&g, &bfs_partition(&g, k), k);
        let path = path_partition_volume(&schedule, k);
        fig.push_row(&[
            &k,
            &hash.comm_pairs,
            &hash.volume_rows,
            &bfs.comm_pairs,
            &bfs.volume_rows,
            &path.comm_pairs,
            &path.volume_rows,
            &path.replica_rows,
            &speedup(&bfs),
            &speedup(&path),
        ]);
        replicas = path.replica_rows;
    }
    fig.with_claim(format!(
        "Paper claims: edge-cut partitions approach all-to-all (pairs ~ k^2/2) with volume\n\
         growing with cut edges; the path partition needs exactly k-1 adjacent exchanges (O(k))\n\
         at the cost of {replicas} replica rows ({:.1}% of nodes).\n\
         Modeled (10 GbE prediction, BFS edge cut vs path partition): the path speedup keeps\n\
         rising with k while the edge-cut curve flattens as its communicating pairs grow.",
        100.0 * replicas as f64 / g.node_count() as f64
    ))
}
