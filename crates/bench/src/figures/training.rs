//! Figures that train on the host: losses and metrics are measured, and the
//! time axis is the modeled GTX 1080 epoch ([`cost::modeled_epoch`]) times
//! the epochs a run needed, on top of the host-measured preprocessing — the
//! paper's convergence-time measure. Host clocks make these files differ
//! run to run.

use super::Figure;
use mega_core::MegaConfig;
use mega_datasets::{aqsol, csl, cycles, zinc, Dataset, DatasetSpec};
use mega_gnn::{cost, EngineChoice, EpochRecord, GnnConfig, ModelKind, Trainer, TrainingHistory};

/// A fixed-seed training run and its modeled epoch.
struct Run {
    history: TrainingHistory,
    epoch_seconds: f64,
}

impl Run {
    fn train(ds: &Dataset, cfg: &GnnConfig, trainer: Trainer) -> Run {
        let epoch_seconds = cost::modeled_epoch(
            ds,
            cfg,
            trainer.engine,
            trainer.batch_size,
            &trainer.mega_config,
        )
        .epoch_seconds;
        Run {
            history: trainer.run(ds, cfg.clone()),
            epoch_seconds,
        }
    }

    /// Modeled seconds to first reach `target` validation loss.
    fn seconds_to_loss(&self, target: f64) -> Option<f64> {
        let h = &self.history;
        h.epochs_to_loss(target)
            .map(|epochs| h.preprocess_seconds + epochs as f64 * self.epoch_seconds)
    }

    fn last(&self) -> &EpochRecord {
        self.history
            .records
            .last()
            .expect("runs train at least one epoch")
    }
}

/// The convergence figures' protocol: 15 epochs at batch 64.
fn trainer(engine: EngineChoice) -> Trainer {
    Trainer::new(engine).with_epochs(15).with_batch_size(64)
}

/// Figures 11–14: convergence of Mega against the DGL baseline. Both share
/// initialization and data, so quality matches while Mega reaches a given
/// loss in less modeled time — ×2 (ZINC/GT), ×2.6 (AQSOL/GT), ×2.2 (CSL),
/// ×1.6 (CYCLES/GCN) in the paper.
pub fn fig11_14_convergence() -> Figure {
    let spec = DatasetSpec::small(11);
    let cases: Vec<(&str, Dataset, ModelKind, usize, f64)> = vec![
        ("Fig 12", zinc(&spec), ModelKind::GraphTransformer, 1, 2.0),
        ("Fig 11", aqsol(&spec), ModelKind::GraphTransformer, 1, 2.6),
        ("Fig 13", csl(&spec), ModelKind::GraphTransformer, 4, 2.2),
        ("Fig 14", cycles(&spec), ModelKind::GatedGcn, 2, 1.6),
    ];
    let mut fig = Figure::new(
        "Figures 11–14 — convergence, time to the baseline's best validation loss \
         (modeled GTX 1080 epochs + host preprocessing)",
        &[
            "figure",
            "dataset",
            "model",
            "paper_speedup",
            "measured_speedup",
            "dgl_final_val_loss",
            "mega_final_val_loss",
            "dgl_final_metric",
            "mega_final_metric",
            "dgl_epoch_sim_seconds",
            "mega_epoch_sim_seconds",
            "dgl",
            "mega",
        ],
    );
    for (figure, ds, kind, out_dim, paper_speedup) in cases {
        mega_obs::info!("training {} ({}, {})...", ds.name, kind.label(), figure);
        let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, out_dim)
            .with_hidden(64)
            .with_layers(2)
            .with_heads(4)
            .with_seed(7);
        let dgl = Run::train(&ds, &cfg, trainer(EngineChoice::Baseline));
        let mega = Run::train(&ds, &cfg, trainer(EngineChoice::Mega));
        // 2% tolerance band around the baseline's best.
        let target = dgl.history.best_val_loss() * 1.02;
        let speedup = match (dgl.seconds_to_loss(target), mega.seconds_to_loss(target)) {
            (Some(td), Some(tm)) if tm > 0.0 => td / tm,
            // Mega never reached the target: fall back to the epoch ratio.
            _ => dgl.epoch_seconds / mega.epoch_seconds,
        };
        fig.push_row(&[
            &figure,
            &ds.name,
            &kind.label(),
            &paper_speedup,
            &speedup,
            &dgl.last().val_loss,
            &mega.last().val_loss,
            &dgl.last().val_metric,
            &mega.last().val_metric,
            &dgl.epoch_seconds,
            &mega.epoch_seconds,
            &dgl.history,
            &mega.history,
        ]);
    }
    fig.with_claim("Paper claims: Mega converges to equal quality in a fraction of the wall clock.")
}

/// Figure 15: AQSOL with 20% of every graph's edges dropped from the path
/// representation (§IV-B5): the path shrinks, epochs get cheaper, accuracy
/// holds. The paper reports 5.9× over the DGL baseline at equal accuracy.
pub fn fig15_edge_drop() -> Figure {
    let ds = aqsol(&DatasetSpec::small(15));
    let cfg = GnnConfig::new(ModelKind::GraphTransformer, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(64)
        .with_layers(2)
        .with_heads(4)
        .with_seed(15);
    let variants = [
        ("DGL", trainer(EngineChoice::Baseline)),
        ("Mega", trainer(EngineChoice::Mega)),
        (
            "Mega + drop 20%",
            trainer(EngineChoice::Mega).with_mega_config(MegaConfig::default().with_edge_drop(0.2)),
        ),
    ];
    let runs: Vec<(&str, Run)> = variants
        .into_iter()
        .map(|(name, t)| {
            mega_obs::info!("training {name}...");
            (name, Run::train(&ds, &cfg, t))
        })
        .collect();
    let dgl = &runs[0].1;
    // Convergence speedup: the baseline's modeled time to its best
    // validation loss against each variant's time to the same level.
    let target = dgl.history.best_val_loss() * 1.02;
    let base_time = dgl.seconds_to_loss(target).unwrap_or(f64::INFINITY);
    let mut fig = Figure::new(
        "Figure 15 — AQSOL with edge dropping (GT, hidden 64; modeled GTX 1080 epochs)",
        &[
            "variant",
            "epoch_sim_seconds",
            "final_val_loss",
            "final_val_mae",
            "speedup_vs_dgl",
            "convergence_speedup_vs_dgl",
            "history",
        ],
    );
    for (name, run) in &runs {
        let speedup = dgl.epoch_seconds / run.epoch_seconds;
        let convergence = run
            .seconds_to_loss(target)
            .map_or(speedup, |t| base_time / t);
        fig.push_row(&[
            name,
            &run.epoch_seconds,
            &run.last().val_loss,
            &run.last().val_metric,
            &speedup,
            &convergence,
            &run.history,
        ]);
    }
    fig.with_claim(
        "Paper claim: Mega with 20% edge dropping reaches ~5.9x speedup over the baseline\n\
         at the same accuracy level (the drop also regularizes, DropEdge-style).",
    )
}

/// Extension: the engine comparison across GatedGCN, Graph Transformer and
/// GAT (the canonical graph-attention layer the paper cites as \[14\]) —
/// modeled epoch under both engines plus a short host training run each.
pub fn model_zoo() -> Figure {
    let ds = zinc(&DatasetSpec {
        train: 256,
        val: 64,
        test: 64,
        seed: 33,
    });
    let mut fig = Figure::new(
        "Model zoo — Mega vs DGL across architectures (ZINC, hidden 32; modeled GTX 1080 epochs)",
        &[
            "model",
            "dgl_epoch_ms",
            "mega_epoch_ms",
            "speedup",
            "dgl_final_mae",
            "mega_final_mae",
        ],
    );
    for kind in [
        ModelKind::GatedGcn,
        ModelKind::GraphTransformer,
        ModelKind::Gat,
    ] {
        mega_obs::info!("training {}...", kind.label());
        let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, 1)
            .with_hidden(32)
            .with_layers(2)
            .with_heads(4)
            .with_seed(5);
        let short = |engine| Trainer::new(engine).with_epochs(8).with_batch_size(32);
        let dgl = Run::train(&ds, &cfg, short(EngineChoice::Baseline));
        let mega = Run::train(&ds, &cfg, short(EngineChoice::Mega));
        fig.push_row(&[
            &kind.label(),
            &(dgl.epoch_seconds * 1e3),
            &(mega.epoch_seconds * 1e3),
            &(dgl.epoch_seconds / mega.epoch_seconds),
            &dgl.last().val_metric,
            &mega.last().val_metric,
        ]);
    }
    fig.with_claim(
        "Expected: every architecture trains to the same quality under both engines,\n\
         and every one runs faster under Mega — the banded routing is model-agnostic.",
    )
}
