//! End-to-end integration tests spanning the whole workspace:
//! datasets → preprocessing → both GNN engines → training, and the modeled
//! GPU epoch beside it.

use mega::core::{preprocess, MegaConfig, WindowPolicy};
use mega::datasets::{aqsol, csl, cycles, zinc, Dataset, DatasetSpec, Task};
use mega::dist::DistTrainer;
use mega::gnn::nn::Binder;
use mega::gnn::{cost, Batch, EngineChoice, Gnn, GnnConfig, ModelKind, Trainer, TrainingHistory};
use mega::tensor::{ParamStore, Tape};

fn tiny(seed: u64) -> DatasetSpec {
    DatasetSpec::tiny(seed)
}

fn config_for(ds: &Dataset, kind: ModelKind) -> GnnConfig {
    let out = match ds.task {
        Task::Regression => 1,
        Task::Classification { classes } => classes,
    };
    GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, out)
        .with_hidden(16)
        .with_layers(2)
        .with_heads(2)
        .with_seed(11)
}

/// Every dataset × model × engine combination trains without NaNs and
/// produces finite, improving losses.
#[test]
fn all_combinations_train() {
    let datasets = [
        zinc(&tiny(1)),
        aqsol(&tiny(2)),
        csl(&tiny(3)),
        cycles(&tiny(4)),
    ];
    for ds in &datasets {
        for kind in [
            ModelKind::GatedGcn,
            ModelKind::GraphTransformer,
            ModelKind::Gat,
        ] {
            for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
                let hist = Trainer::new(engine)
                    .with_epochs(2)
                    .with_batch_size(8)
                    .run(ds, config_for(ds, kind));
                assert_eq!(hist.records.len(), 2);
                for r in &hist.records {
                    assert!(
                        r.train_loss.is_finite() && r.val_loss.is_finite(),
                        "{} {} {:?}: non-finite loss",
                        ds.name,
                        kind.label(),
                        engine
                    );
                }
            }
        }
    }
}

/// The paper's central correctness claim: with full coverage, the MEGA
/// engine's forward pass equals the baseline's on every dataset and model.
#[test]
fn engines_agree_on_every_dataset() {
    let datasets = [
        zinc(&tiny(5)),
        aqsol(&tiny(6)),
        csl(&tiny(7)),
        cycles(&tiny(8)),
    ];
    for ds in &datasets {
        for kind in [
            ModelKind::GatedGcn,
            ModelKind::GraphTransformer,
            ModelKind::Gat,
        ] {
            let cfg = config_for(ds, kind);
            let mut store = ParamStore::new();
            let model = Gnn::new(&mut store, cfg);
            let samples = &ds.train[..6];
            let schedules: Vec<_> = samples
                .iter()
                .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
                .collect();
            let base = Batch::baseline(samples);
            let mega = Batch::mega(samples, &schedules);

            let mut tb = Tape::new();
            let mut bb = Binder::new();
            let pb = model.forward(&mut tb, &mut bb, &store, &base);
            let mut tm = Tape::new();
            let mut bm = Binder::new();
            let pm = model.forward(&mut tm, &mut bm, &store, &mega);

            let vb = tb.value(pb);
            let vm = tm.value(pm);
            for (a, b) in vb.as_slice().iter().zip(vm.as_slice()) {
                assert!(
                    (a - b).abs() < 5e-3 * (1.0 + a.abs()),
                    "{} {}: baseline {a} vs mega {b}",
                    ds.name,
                    kind.label()
                );
            }
        }
    }
}

/// MEGA's modeled epoch is cheaper than the baseline's for every dataset.
#[test]
fn mega_epoch_is_cheaper_everywhere() {
    let datasets = [
        zinc(&tiny(9)),
        aqsol(&tiny(10)),
        csl(&tiny(11)),
        cycles(&tiny(12)),
    ];
    for ds in &datasets {
        let cfg = config_for(ds, ModelKind::GraphTransformer)
            .with_hidden(64)
            .with_heads(4);
        let modeled = |engine| {
            cost::modeled_epoch(ds, &cfg, engine, 16, &MegaConfig::default()).epoch_seconds
        };
        let (base, mega) = (modeled(EngineChoice::Baseline), modeled(EngineChoice::Mega));
        assert!(mega < base, "{}: mega {mega} vs baseline {base}", ds.name);
    }
}

/// Edge dropping shortens the modeled epoch further (the Fig. 15 setup).
#[test]
fn edge_dropping_compounds_the_speedup() {
    let ds = aqsol(&tiny(13));
    let cfg = config_for(&ds, ModelKind::GraphTransformer);
    let modeled = |mega_config: MegaConfig| {
        cost::modeled_epoch(&ds, &cfg, EngineChoice::Mega, 8, &mega_config).epoch_seconds
    };
    let full = modeled(MegaConfig::default());
    let dropped = modeled(MegaConfig::default().with_edge_drop(0.3));
    assert!(dropped < full, "dropped {dropped} vs full {full}");
}

/// Preprocessing honors custom window policies end to end.
#[test]
fn window_policy_reaches_training() {
    let ds = zinc(&tiny(14));
    let cfg = config_for(&ds, ModelKind::GatedGcn);
    for w in [1usize, 4] {
        let hist = Trainer::new(EngineChoice::Mega)
            .with_epochs(1)
            .with_batch_size(8)
            .with_mega_config(MegaConfig::default().with_window(WindowPolicy::Fixed(w)))
            .run(&ds, cfg.clone());
        assert!(hist.records[0].train_loss.is_finite(), "window {w}");
    }
}

/// An infinite learning rate blows the parameters up after the first
/// optimizer step, so the second step's forward pass goes non-finite — the
/// sentinel must abort with the full diagnostic dump, naming the offending
/// op, however the step's shards were executed.
#[test]
fn nan_sentinel_aborts_with_diagnostic_dump() {
    type Run = fn(Trainer, &Dataset, GnnConfig) -> TrainingHistory;
    let executors: [(&str, Run); 2] = [
        ("inline", |t, ds, cfg| t.run(ds, cfg)),
        ("sharded", |t, ds, cfg| DistTrainer::new(t, 2).run(ds, cfg)),
    ];
    for (name, run) in executors {
        let ds = zinc(&tiny(31));
        let cfg = config_for(&ds, ModelKind::GatedGcn);
        // A scratch thread captures the panic payload for inspection.
        let handle = std::thread::spawn(move || {
            let trainer = Trainer::new(EngineChoice::Baseline)
                .with_epochs(3)
                .with_batch_size(8)
                .with_lr(f32::INFINITY);
            run(trainer, &ds, cfg);
        });
        let err = handle.join().expect_err("training must abort, not finish");
        let msg = err
            .downcast_ref::<String>()
            .expect("sentinel panics with a formatted dump");
        for expected in [
            "non-finite training signal",
            "epoch 1 step",
            "offending op: node #",
            "metrics snapshot:",
            "flight recorder",
        ] {
            assert!(msg.contains(expected), "{name}: no `{expected}` in {msg}");
        }
    }
}
