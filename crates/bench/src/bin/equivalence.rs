//! Bit-exact equivalence matrix: backend x shard executor.
//!
//! Trains the same fixed-seed models — GatedGCN, Graph Transformer and GAT,
//! so every `Linear`, every backward GEMM and GAT's head-blocked scores
//! are in the matrix — under every combination of `--backend a,b` (default
//! `reference,simd`) and execution — whole-batch `Trainer::run` plus the
//! sharded `DistTrainer` at every `--workers` count (default `1,2,4`) —
//! under both engines, and prints each loss trajectory as raw `f64` bit
//! patterns. GatedGCN's rows keep their labels; the other models' carry
//! the model as a suffix (`simd[workers=2]/MEGA/GT`). Whole-batch and sharded runs
//! legitimately differ at this batch size (batch norm sees different
//! statistics per shard), so every configuration is compared against the
//! first of its own family. The band leg runs the halo-exchange executor
//! at every worker count against the serial oracle (`run_serial`), states
//! and weight gradients, and every backend's `banded_aggregate` and
//! `banded_weight_grad` at dims 16 and 67 and every worker count against
//! the scalar slot walk — so a `simd` run covers the SIMD band lanes.
//!
//! Exits non-zero on the first mismatched bit, so CI can assert
//! reference ≡ simd and 1 ≡ 2 ≡ 4 workers directly.

use mega_core::Parallelism;
use mega_core::{preprocess, MegaConfig};
use mega_datasets::{zinc, DatasetSpec};
use mega_dist::{run_serial, BandJob, DistExecutor, DistTrainer, ThreadExecutor};
use mega_exec::kernels::{self, BandLanes};
use mega_exec::{backend_by_name, Backend};
use mega_gnn::{EngineChoice, GnnConfig, ModelKind, Trainer, TrainingHistory};
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::btree_map::{BTreeMap, Entry};
use std::process::ExitCode;
use std::sync::Arc;

/// The fixed-seed problem of one family: (train graphs, hidden, heads,
/// epochs). Each family keeps the problem it has always trained, so its
/// printed trajectories stay comparable with earlier CI logs.
const WHOLE_BATCH: (usize, usize, usize, usize) = (64, 32, 4, 3);
const SHARDED: (usize, usize, usize, usize) = (48, 24, 2, 2);

/// One cell of the matrix; `workers: None` is whole-batch `Trainer::run`.
struct Config {
    label: String,
    backend: Arc<dyn Backend>,
    workers: Option<usize>,
}

/// The models every cell trains, GatedGCN first.
const MODELS: [ModelKind; 3] = [
    ModelKind::GatedGcn,
    ModelKind::GraphTransformer,
    ModelKind::Gat,
];

fn train(c: &Config, model: ModelKind, engine: EngineChoice) -> TrainingHistory {
    let (train, hidden, heads, epochs) = if c.workers.is_some() {
        SHARDED
    } else {
        WHOLE_BATCH
    };
    let ds = zinc(&DatasetSpec {
        train,
        val: 16,
        test: 16,
        seed: 7,
    });
    let cfg = GnnConfig::new(model, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(hidden)
        .with_layers(2)
        .with_heads(heads);
    let trainer = Trainer::new(engine)
        .with_epochs(epochs)
        .with_batch_size(8)
        .with_backend(c.backend.clone());
    match c.workers {
        None => trainer.run(&ds, cfg),
        Some(k) => DistTrainer::new(trainer, k).run(&ds, cfg),
    }
}

/// Prints the loss trajectory and returns it as exact bit patterns.
fn trajectory(label: &str, hist: &TrainingHistory) -> Vec<u64> {
    let mut bits = Vec::new();
    for r in &hist.records {
        println!(
            "{label} epoch {} train {:016x} val {:016x}",
            r.epoch,
            r.train_loss.to_bits(),
            r.val_loss.to_bits()
        );
        bits.extend([r.train_loss.to_bits(), r.val_loss.to_bits()]);
    }
    println!("{label} test {:016x}", hist.test_loss.to_bits());
    bits.push(hist.test_loss.to_bits());
    bits
}

/// Deterministic pseudo-input bits; the kernels only care about the bits.
fn mix(i: usize) -> f32 {
    let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(41);
    ((h >> 32) as f32 / u32::MAX as f32) - 0.5
}

/// The halo-exchange executor must be bit-identical to the serial oracle,
/// and every backend's band kernels to the scalar walk, for every worker
/// count.
fn band_leg(backends: &[(&str, Arc<dyn Backend>)], worker_counts: &[usize]) -> bool {
    let mut rng = StdRng::seed_from_u64(23);
    let g = generate::barabasi_albert(300, 3, &mut rng).expect("BA graph");
    let s = preprocess(&g, &MegaConfig::default()).expect("preprocess");
    let band = s.band();
    let edges = s.working_graph().edge_count();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut ok = true;
    for dim in [16usize, 67] {
        let x: Vec<f32> = (0..band.len() * dim).map(mix).collect();
        let d_out: Vec<f32> = (0..band.len() * dim).map(|i| mix(i + 7)).collect();
        let weights: Vec<f32> = (0..edges).map(|e| mix(e + band.len() * dim)).collect();
        let (mut fwd, mut dw) = (vec![0.0f32; x.len()], vec![0.0f32; edges]);
        kernels::banded_aggregate_serial(BandLanes::SCALAR, band, &x, dim, &weights, &mut fwd);
        kernels::banded_weight_grad_serial(BandLanes::SCALAR, band, &x, &d_out, dim, &mut dw);
        for (name, backend) in backends {
            for &k in worker_counts {
                let par = Parallelism::pinned(k);
                let (mut out, mut grad) = (vec![0.0f32; x.len()], vec![0.0f32; edges]);
                backend.banded_aggregate(band, &x, dim, &weights, &par, &mut out);
                backend.banded_weight_grad(band, &x, &d_out, dim, edges, &par, &mut grad);
                let label = format!("band kernels {name}[workers={k}] dim={dim}");
                if bits(&out) == bits(&fwd) && bits(&grad) == bits(&dw) {
                    println!("MATCH: {label} == scalar walk (bit-exact, forward + weight grad)");
                } else {
                    eprintln!("MISMATCH: {label} differs from the scalar walk");
                    ok = false;
                }
            }
        }
    }
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
    for &k in worker_counts {
        let run = ThreadExecutor::new(k).run(&job);
        if bits(&run.x) == bits(&oracle.x) && bits(&run.dw) == bits(&oracle.dw) {
            println!("MATCH: band[workers={k}] == serial (bit-exact, state + grads)");
        } else {
            eprintln!("MISMATCH: band[workers={k}] differs from the serial oracle");
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut backends = "reference,simd".to_string();
    let mut workers = "1,2,4".to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--backend" => backends = args.next().unwrap_or_default(),
            "--workers" => workers = args.next().unwrap_or_default(),
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
    let executions: Vec<Option<usize>> = std::iter::once(None)
        .chain(counts.iter().copied().map(Some))
        .collect();
    let mut configs = Vec::new();
    let mut named = Vec::new();
    for name in backends.split(',') {
        let Some(backend) = backend_by_name(name) else {
            eprintln!("unknown backend `{name}` (expected reference or simd)");
            return ExitCode::FAILURE;
        };
        named.push((name, backend.clone()));
        for &workers in &executions {
            let label = match workers {
                None => name.to_string(),
                Some(k) => format!("{name}[workers={k}]"),
            };
            configs.push(Config {
                label,
                backend: backend.clone(),
                workers,
            });
        }
    }

    let mut ok = band_leg(&named, &counts);
    // Every configuration must match the first of its family (whole-batch
    // or sharded), model by model and engine by engine.
    let mut oracles: BTreeMap<(&str, bool, &str), (String, Vec<u64>)> = BTreeMap::new();
    for (model, c) in MODELS
        .iter()
        .flat_map(|m| configs.iter().map(move |c| (*m, c)))
    {
        for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
            let label = match model {
                ModelKind::GatedGcn => format!("{}/{}", c.label, engine.label()),
                _ => format!("{}/{}/{}", c.label, engine.label(), model.label()),
            };
            let bits = trajectory(&label, &train(c, model, engine));
            match oracles.entry((model.label(), c.workers.is_some(), engine.label())) {
                Entry::Vacant(slot) => {
                    slot.insert((label, bits));
                }
                Entry::Occupied(oracle) if oracle.get().1 == bits => {
                    println!("MATCH: {label} == {} (bit-exact)", oracle.get().0);
                }
                Entry::Occupied(oracle) => {
                    eprintln!("MISMATCH: {label} differs from {}", oracle.get().0);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
