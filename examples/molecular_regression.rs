//! Molecular property regression: train GatedGCN on the ZINC-like dataset
//! under both engines and compare quality and the modeled GPU epoch.
//!
//! Run with: `cargo run --release --example molecular_regression`
//!
//! This is the workload of the paper's Fig. 12 at example scale: the MEGA
//! engine computes the same math as the DGL-style baseline (identical final
//! MAE up to float noise) but its modeled epoch is substantially cheaper.

use mega::core::MegaConfig;
use mega::datasets::{zinc, DatasetSpec};
use mega::gnn::{cost, EngineChoice, GnnConfig, ModelKind, Trainer};

fn main() {
    let ds = zinc(&DatasetSpec {
        train: 256,
        val: 64,
        test: 64,
        seed: 42,
    });
    println!(
        "dataset: {} ({} train / {} val graphs)",
        ds.name,
        ds.train.len(),
        ds.val.len()
    );

    let cfg = GnnConfig::new(ModelKind::GatedGcn, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(32)
        .with_layers(2)
        .with_seed(3);

    for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
        let trainer = Trainer::new(engine)
            .with_epochs(8)
            .with_batch_size(32)
            .with_lr(5e-3);
        let hist = trainer.run(&ds, cfg.clone());
        println!("\n== engine: {} ==", hist.engine);
        let modeled = cost::modeled_epoch(&ds, &cfg, engine, 32, &MegaConfig::default());
        println!(
            "modeled (gpu-sim GTX 1080) epoch: {:.3} ms",
            modeled.epoch_seconds * 1e3
        );
        if hist.preprocess_seconds > 0.0 {
            println!(
                "one-time CPU preprocessing: {:.3} s",
                hist.preprocess_seconds
            );
        }
        println!("epoch  train-loss  val-loss  val-MAE");
        for r in &hist.records {
            println!(
                "{:>5}  {:>10.4}  {:>8.4}  {:>7.4}",
                r.epoch, r.train_loss, r.val_loss, r.val_metric
            );
        }
    }
    println!("\nBoth engines converge to the same quality; Mega's modeled epoch is");
    println!("~1.3-1.8x cheaper (`figures fig10_runtime` has the sweep).");
}
