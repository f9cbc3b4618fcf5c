//! Bit-exact distributed equivalence check.
//!
//! Two legs, mirroring `backend_equivalence`:
//!
//! 1. **Band engine** — runs the halo-exchange executor over a fixed-seed
//!    band job for every `--workers` count and bit-compares states and
//!    weight gradients against the serial oracle (`run_serial`).
//! 2. **Trainer** — trains the same fixed-seed model through the
//!    shard-parallel `DistTrainer` for every worker count crossed with
//!    every `--backend`, and prints the loss trajectory as raw `f64` bit
//!    patterns. Every configuration is compared against the first, so CI
//!    can assert that the distributed trajectory is invariant under the
//!    worker count and the kernel backend simultaneously.
//!
//! Exits non-zero on any mismatch.

use mega_core::{preprocess, MegaConfig};
use mega_datasets::{zinc, DatasetSpec};
use mega_dist::{run_serial, BandJob, DistExecutor, DistTrainer, ThreadExecutor};
use mega_exec::{backend_by_name, Backend};
use mega_gnn::{EngineChoice, GnnConfig, ModelKind, Trainer, TrainingHistory};
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;

/// Deterministic pseudo-input bits; the kernels only care about the bits.
fn mix(i: usize) -> f32 {
    let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(41);
    ((h >> 32) as f32 / u32::MAX as f32) - 0.5
}

/// Leg 1: the halo-exchange executor must be bit-identical to the serial
/// oracle for every worker count.
fn band_leg(worker_counts: &[usize]) -> bool {
    let mut rng = StdRng::seed_from_u64(23);
    let g = generate::barabasi_albert(300, 3, &mut rng).expect("BA graph");
    let s = preprocess(&g, &MegaConfig::default()).expect("preprocess");
    let band = s.band();
    let edges = s.working_graph().edge_count();
    let dim = 16usize;
    let x0: Vec<f32> = (0..band.len() * dim).map(mix).collect();
    let weights: Vec<f32> = (0..edges).map(|e| mix(e + band.len() * dim)).collect();
    let job = BandJob {
        band,
        x0: &x0,
        dim,
        weights: &weights,
        edge_count: edges,
        steps: 6,
        damping: 0.8,
    };
    let oracle = run_serial(&job);
    let obits: Vec<u32> = oracle.x.iter().map(|v| v.to_bits()).collect();
    let odw: Vec<u32> = oracle.dw.iter().map(|v| v.to_bits()).collect();
    let mut ok = true;
    for &k in worker_counts {
        let run = ThreadExecutor::new(k).run(&job);
        let bits: Vec<u32> = run.x.iter().map(|v| v.to_bits()).collect();
        let dw: Vec<u32> = run.dw.iter().map(|v| v.to_bits()).collect();
        if bits == obits && dw == odw {
            println!("MATCH: band[workers={k}] == serial (bit-exact, state + grads)");
        } else {
            eprintln!("MISMATCH: band[workers={k}] differs from the serial oracle");
            ok = false;
        }
    }
    ok
}

fn train(engine: EngineChoice, backend: Arc<dyn Backend>, workers: usize) -> TrainingHistory {
    let ds = zinc(&DatasetSpec {
        train: 48,
        val: 16,
        test: 16,
        seed: 7,
    });
    let cfg = GnnConfig::new(ModelKind::GatedGcn, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(24)
        .with_layers(2)
        .with_heads(2);
    let inner = Trainer::new(engine)
        .with_epochs(2)
        .with_batch_size(8)
        .with_backend(backend);
    DistTrainer::new(inner, workers).run(&ds, cfg)
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

/// Loss trajectory as exact bit patterns, for comparison across configs.
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
    let mut workers = "1,2,4".to_string();
    let mut backends = "reference".to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" => workers = args.next().unwrap_or_default(),
            "--backend" => backends = args.next().unwrap_or_default(),
            _ => {}
        }
    }
    let mut counts = Vec::new();
    for w in workers.split(',') {
        match w.trim().parse::<usize>() {
            Ok(k) if k > 0 => counts.push(k),
            _ => {
                eprintln!("invalid --workers value `{w}` (expected positive integers)");
                return ExitCode::FAILURE;
            }
        }
    }
    let names: Vec<&str> = backends.split(',').collect();
    let mut ok = band_leg(&counts);

    // Leg 2: worker count x backend x engine, all against the first config.
    let mut trajectories: Vec<(String, Vec<u64>)> = Vec::new();
    for name in &names {
        let Some(backend) = backend_by_name(name) else {
            eprintln!("unknown backend `{name}` (expected reference or simd)");
            return ExitCode::FAILURE;
        };
        for &k in &counts {
            for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
                let hist = train(engine, backend.clone(), k);
                let label = format!("{name}[workers={k}]/{}", engine.label());
                print_history(&label, &hist);
                trajectories.push((label, bits(&hist)));
            }
        }
    }
    let per_config = 2; // Baseline + Mega
    for c in 1..trajectories.len() / per_config {
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
