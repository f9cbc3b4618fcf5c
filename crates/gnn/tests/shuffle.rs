//! Shuffled training preprocesses each split once: the per-epoch reshuffle
//! re-batches the schedules computed at the start of the run instead of
//! walking every train graph again.
//!
//! Its own test binary: it enables the process-global obs registry and
//! counts every traversal in the process.

use mega_datasets::{zinc, DatasetSpec};
use mega_gnn::{EngineChoice, GnnConfig, ModelKind, Trainer};

#[test]
fn shuffled_mega_training_preprocesses_each_split_once() {
    let ds = zinc(&DatasetSpec::tiny(27));
    let cfg = GnnConfig::new(ModelKind::GraphTransformer, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(16)
        .with_layers(2)
        .with_heads(2);
    mega_obs::reset();
    mega_obs::set_enabled(true);
    let hist = Trainer::new(EngineChoice::Mega)
        .with_epochs(3)
        .with_batch_size(8)
        .with_shuffle(99)
        .run(&ds, cfg);
    mega_obs::set_enabled(false);
    let walks = mega_obs::snapshot()
        .values
        .iter()
        .find(|(name, _)| name == "core.traversal.path_len")
        .map_or(0, |(_, h)| h.count);
    assert_eq!(
        walks as usize,
        ds.train.len() + ds.val.len() + ds.test.len(),
        "one traversal per graph of each split"
    );
    // The history of the build that re-preprocessed the train split every
    // epoch: the schedules are shuffled in step with their samples.
    let bits: Vec<u64> = hist
        .records
        .iter()
        .flat_map(|r| [r.train_loss, r.val_loss, r.val_metric])
        .chain([hist.test_loss, hist.test_metric])
        .map(f64::to_bits)
        .collect();
    assert_eq!(
        bits,
        [
            0x400655ca80000000,
            0x4003936240000000,
            0x400393624c000000,
            0x4004b6b555555555,
            0x40034b0be0000000,
            0x40034b0bfc000000,
            0x400451cd4aaaaaab,
            0x4002ab5c60000000,
            0x4002ab5c70000000,
            0x4002f59240000000,
            0x4002f59240000000,
        ]
    );
}
