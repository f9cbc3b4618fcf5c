//! Integration tests for the extension surfaces: persistence, graph I/O, the
//! GAT model, and distributed scaling — all through the facade crate, as a
//! downstream user would.

use mega::core::{persist, preprocess, MegaConfig};
use mega::datasets::{zinc, DatasetSpec};
use mega::dist::{
    bfs_partition, edge_cut_volume, epoch_scaling, path_partition_volume, ClusterConfig, CommStats,
};
use mega::gnn::{cost, EngineChoice, GnnConfig, ModelKind, Trainer};
use mega::graph::{generate, io, Direction};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Preprocess → save → load → train with the loaded schedule's statistics
/// intact.
#[test]
fn schedule_survives_persistence() {
    let g = generate::barabasi_albert(40, 2, &mut StdRng::seed_from_u64(1)).unwrap();
    let s = preprocess(&g, &MegaConfig::default()).unwrap();
    let dir = std::env::temp_dir().join("mega-ext-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sched.json");
    persist::save(&s, &path).unwrap();
    let loaded = persist::load(&path).unwrap();
    assert_eq!(s.stats(), loaded.stats());
    assert_eq!(s.band().active_slots(), loaded.band().active_slots());
    std::fs::remove_file(&path).ok();
}

/// Graph file round trip feeds preprocessing.
#[test]
fn io_feeds_preprocessing() {
    let g = generate::watts_strogatz(50, 4, 0.1, &mut StdRng::seed_from_u64(2)).unwrap();
    let mut buf = Vec::new();
    io::write_edge_list(&g, &mut buf).unwrap();
    let back = io::read_edge_list(&buf[..], Direction::Undirected).unwrap();
    let s = preprocess(&back, &MegaConfig::default()).unwrap();
    assert_eq!(s.band().covered_edge_count(), g.edge_count());
}

/// GAT trains end-to-end under the MEGA engine with finite losses and a
/// cheaper modeled epoch than the baseline.
#[test]
fn gat_trains_under_both_engines() {
    let ds = zinc(&DatasetSpec::tiny(4));
    let cfg = GnnConfig::new(ModelKind::Gat, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(16)
        .with_layers(2)
        .with_heads(2);
    let base = Trainer::new(EngineChoice::Baseline)
        .with_epochs(2)
        .with_batch_size(8)
        .run(&ds, cfg.clone());
    let mega = Trainer::new(EngineChoice::Mega)
        .with_epochs(2)
        .with_batch_size(8)
        .run(&ds, cfg.clone());
    assert!(base.records.iter().all(|r| r.train_loss.is_finite()));
    assert!(mega.records.iter().all(|r| r.train_loss.is_finite()));
    let modeled =
        |engine| cost::modeled_epoch(&ds, &cfg, engine, 8, &MegaConfig::default()).epoch_seconds;
    assert!(modeled(EngineChoice::Mega) < modeled(EngineChoice::Baseline));
}

/// The scaling model favors the path partition on a real preprocessed graph:
/// its speedup rises with k, and at k ∈ {8, 32} it beats the BFS edge cut's
/// (§IV-B6).
#[test]
fn scaling_model_prefers_path_partition() {
    let g = generate::barabasi_albert(300, 3, &mut StdRng::seed_from_u64(5)).unwrap();
    let s = preprocess(&g, &MegaConfig::default()).unwrap();
    let cluster = ClusterConfig::ten_gbe();
    let speedup = |stats: &CommStats| epoch_scaling(0.5, stats, 100, 64, &cluster);
    let mut last_speedup = 0.0;
    for k in [2usize, 8, 32] {
        let path = speedup(&path_partition_volume(&s, k));
        assert!(path > last_speedup, "k={k} did not improve");
        last_speedup = path;
        if k >= 8 {
            let cut = speedup(&edge_cut_volume(&g, &bfs_partition(&g, k), k));
            assert!(path > cut, "k={k}: path {path} <= edge cut {cut}");
        }
    }
}

/// The per-epoch reshuffle trains under the MEGA engine.
#[test]
fn full_protocol_run() {
    let ds = zinc(&DatasetSpec::tiny(6));
    let cfg = GnnConfig::new(ModelKind::GatedGcn, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(16)
        .with_layers(2);
    let hist = Trainer::new(EngineChoice::Mega)
        .with_epochs(6)
        .with_batch_size(8)
        .with_shuffle(7)
        .run(&ds, cfg);
    assert!(!hist.records.is_empty() && hist.records.len() <= 6);
    assert!(hist.best_val_loss().is_finite());
}
