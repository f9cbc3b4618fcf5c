//! Bit-exact backend and planner equivalence check.
//!
//! Trains the same fixed-seed model under a matrix of execution backends
//! and planner settings and prints the loss trajectory as raw `f64` bit
//! patterns. `--backend a,b` selects the backends (default
//! `reference,reference`); `--plan on,off` additionally crosses the tape
//! planner (deferred execution + fusion) against the unfused eager oracle.
//! Every configuration is compared against the first; the process exits
//! non-zero when any trajectory differs, so CI can assert reference ≡ simd
//! and planned ≡ unplanned directly.

use mega_datasets::{zinc, DatasetSpec};
use mega_exec::{backend_by_name, Backend};
use mega_gnn::{EngineChoice, GnnConfig, ModelKind, Trainer, TrainingHistory};
use std::process::ExitCode;
use std::sync::Arc;

fn run(engine: EngineChoice, backend: Arc<dyn Backend>, plan: bool) -> TrainingHistory {
    let ds = zinc(&DatasetSpec {
        train: 64,
        val: 16,
        test: 16,
        seed: 7,
    });
    let cfg = GnnConfig::new(ModelKind::GatedGcn, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(32)
        .with_layers(2)
        .with_heads(4);
    Trainer::new(engine)
        .with_epochs(3)
        .with_batch_size(8)
        .with_backend(backend)
        .with_plan(plan)
        .run(&ds, cfg)
}

fn print_history(label: &str, hist: &TrainingHistory) {
    for r in &hist.records {
        println!(
            "{label} epoch {} train {:016x} val {:016x}",
            r.epoch,
            r.train_loss.to_bits(),
            r.val_loss.to_bits()
        );
    }
    println!("{label} test {:016x}", hist.test_loss.to_bits());
}

/// Loss trajectory as exact bit patterns, for comparison across backends.
fn bits(hist: &TrainingHistory) -> Vec<u64> {
    let mut v: Vec<u64> = hist
        .records
        .iter()
        .flat_map(|r| [r.train_loss.to_bits(), r.val_loss.to_bits()])
        .collect();
    v.push(hist.test_loss.to_bits());
    v
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut backends = "reference,reference".to_string();
    let mut plans = "on".to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--backend" => backends = args.next().unwrap_or_default(),
            "--plan" => plans = args.next().unwrap_or_default(),
            _ => {}
        }
    }
    let names: Vec<&str> = backends.split(',').collect();
    let mut plan_flags = Vec::new();
    for p in plans.split(',') {
        match p {
            "on" => plan_flags.push(true),
            "off" => plan_flags.push(false),
            other => {
                eprintln!("unknown --plan value `{other}` (expected on or off)");
                return ExitCode::FAILURE;
            }
        }
    }
    // The configuration matrix: every backend crossed with every planner
    // setting, each trained under both engines.
    let mut configs: Vec<(String, Arc<dyn Backend>, bool)> = Vec::new();
    for name in &names {
        let Some(backend) = backend_by_name(name) else {
            eprintln!("unknown backend `{name}` (expected reference or simd)");
            return ExitCode::FAILURE;
        };
        for &plan in &plan_flags {
            let label = format!("{name}[plan={}]", if plan { "on" } else { "off" });
            configs.push((label, backend.clone(), plan));
        }
    }
    let mut trajectories: Vec<(String, Vec<u64>)> = Vec::new();
    for (label, backend, plan) in &configs {
        for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
            let hist = run(engine, backend.clone(), *plan);
            let full = format!("{label}/{}", engine.label());
            print_history(&full, &hist);
            trajectories.push((full, bits(&hist)));
        }
    }
    // Every configuration must match the first, engine by engine.
    let per_config = 2; // Baseline + Mega
    let mut ok = true;
    for c in 1..configs.len() {
        for e in 0..per_config {
            let (ref la, ref a) = trajectories[e];
            let (ref lb, ref b) = trajectories[c * per_config + e];
            if a != b {
                eprintln!("MISMATCH: {lb} differs from {la}");
                ok = false;
            } else {
                println!("MATCH: {lb} == {la} (bit-exact)");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
