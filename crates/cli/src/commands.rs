//! CLI command implementations.

use crate::args::Args;
use mega_core::{preprocess as mega_preprocess, MegaConfig, WindowPolicy};
use mega_datasets::{aqsol, csl, cycles, zinc, Dataset, DatasetSpec, Task};
use mega_gnn::{EngineChoice, GnnConfig, ModelKind, Trainer};
use mega_graph::{io, Direction};
use mega_obs::{data, info};
use mega_wl::{global_similarity, path_similarity};
use std::fs::File;
use std::io::BufReader;

/// Whether `--trace-out` / `--metrics-out` ask for instrumented output.
fn wants_obs(args: &Args) -> bool {
    args.get("trace-out").is_some() || args.get("metrics-out").is_some()
}

/// Writes the Chrome-trace and/or deterministic metrics files requested by
/// `--trace-out` / `--metrics-out` from the current observability registry.
fn write_obs_outputs(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, mega_obs::trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        info!("[trace written to {path}]");
    }
    if let Some(path) = args.get("metrics-out") {
        let snap = mega_obs::snapshot();
        std::fs::write(path, snap.to_json(true))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        info!("[metrics written to {path}]");
    }
    Ok(())
}

fn dataset_by_name(name: &str, spec: &DatasetSpec) -> Result<Dataset, String> {
    match name {
        "zinc" => Ok(zinc(spec)),
        "aqsol" => Ok(aqsol(spec)),
        "csl" => Ok(csl(spec)),
        "cycles" => Ok(cycles(spec)),
        other => Err(format!("unknown dataset `{other}` (zinc|aqsol|csl|cycles)")),
    }
}

fn model_by_name(name: &str) -> Result<ModelKind, String> {
    match name {
        "gcn" => Ok(ModelKind::GatedGcn),
        "gt" => Ok(ModelKind::GraphTransformer),
        "gat" => Ok(ModelKind::Gat),
        other => Err(format!("unknown model `{other}` (gcn|gt|gat)")),
    }
}

fn engine_by_name(name: &str) -> Result<EngineChoice, String> {
    match name {
        "dgl" | "baseline" => Ok(EngineChoice::Baseline),
        "mega" => Ok(EngineChoice::Mega),
        other => Err(format!("unknown engine `{other}` (dgl|mega)")),
    }
}

/// `mega demo` — preprocess the paper's Fig. 3a graph and print the path.
pub fn demo() -> Result<(), String> {
    let g = mega_graph::GraphBuilder::undirected(7)
        .edges([
            (0, 1),
            (0, 5),
            (1, 2),
            (1, 5),
            (2, 3),
            (2, 6),
            (3, 6),
            (3, 4),
            (4, 6),
            (5, 6),
        ])
        .map_err(|e| e.to_string())?
        .build()
        .map_err(|e| e.to_string())?;
    let s = mega_preprocess(&g, &MegaConfig::default()).map_err(|e| e.to_string())?;
    let stats = s.stats();
    data!("demo graph: {} nodes, {} edges", stats.nodes, stats.edges);
    data!("path: {:?}", s.gather_index());
    data!(
        "window {} | revisits {} | virtual edges {} | coverage {:.0}% | expansion {:.2}x",
        stats.window,
        stats.revisits,
        stats.virtual_edges,
        stats.coverage * 100.0,
        stats.expansion
    );
    for hops in 1..=3 {
        data!(
            "{hops}-hop similarity: path {:.3} vs global attention {:.3}",
            path_similarity(&g, &s, hops),
            global_similarity(&g, hops)
        );
    }
    Ok(())
}

/// `mega preprocess <file>` — preprocess a user graph.
pub fn preprocess(args: &Args) -> Result<(), String> {
    let path = args
        .positional()
        .first()
        .ok_or("preprocess needs an edge-list file argument")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let g = io::read_edge_list(BufReader::new(file), Direction::Undirected)
        .map_err(|e| e.to_string())?;

    let mut cfg = MegaConfig::default();
    if let Some(w) = args.get("window") {
        let w: usize = w.parse().map_err(|_| format!("invalid --window {w}"))?;
        cfg = cfg.with_window(WindowPolicy::Fixed(w));
    }
    cfg = cfg.with_coverage(args.get_or("coverage", 1.0f64)?);
    cfg = cfg.with_edge_drop(args.get_or("drop", 0.0f64)?);

    let s = mega_preprocess(&g, &cfg).map_err(|e| e.to_string())?;
    let stats = s.stats();
    if args.has_flag("json") {
        data!(
            "{}",
            serde_json::to_string_pretty(&stats).expect("stats serialize infallibly")
        );
    } else {
        data!("graph: {} nodes, {} edges", stats.nodes, stats.edges);
        data!(
            "path length {} (expansion {:.2}x) | window {} | revisits {} | virtual {}",
            stats.path_len,
            stats.expansion,
            stats.window,
            stats.revisits,
            stats.virtual_edges
        );
        data!(
            "band: coverage {:.1}% | density {:.3}",
            stats.coverage * 100.0,
            stats.band_density
        );
    }
    Ok(())
}

/// `mega stats` — Table II/III rows for the synthetic datasets.
pub fn stats(args: &Args) -> Result<(), String> {
    let which = args.get("dataset").unwrap_or("all");
    let spec = DatasetSpec::small(2024);
    let names: Vec<&str> = match which {
        "all" => vec!["zinc", "aqsol", "csl", "cycles"],
        one => vec![one],
    };
    data!(
        "{:<8} {:>7} {:>9} {:>9} {:>11} {:>10} {:>8}",
        "dataset",
        "nodes",
        "edges(2m)",
        "sparsity",
        "mu(sig(d))",
        "sig(dmax)",
        "mu(eps)"
    );
    for name in names {
        let ds = dataset_by_name(name, &spec)?;
        let st = ds.stats(128);
        data!(
            "{:<8} {:>7.1} {:>9.1} {:>9.3} {:>11.4} {:>10.4} {:>8.2}",
            ds.name,
            st.mean_nodes,
            2.0 * st.mean_edges,
            st.mean_sparsity,
            st.mean_degree_std,
            st.std_max_degree,
            st.mean_ks_similarity
        );
    }
    Ok(())
}

/// `mega train` — train one model/engine combination and print the history.
pub fn train(args: &Args) -> Result<(), String> {
    let spec = DatasetSpec {
        train: 256,
        val: 64,
        test: 64,
        seed: 7,
    };
    let ds = dataset_by_name(args.get("dataset").unwrap_or("zinc"), &spec)?;
    let kind = model_by_name(args.get("model").unwrap_or("gcn"))?;
    let engine = engine_by_name(args.get("engine").unwrap_or("mega"))?;
    let out = match ds.task {
        Task::Regression => 1,
        Task::Classification { classes } => classes,
    };
    let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, out)
        .with_hidden(args.get_or("hidden", 32usize)?)
        .with_layers(args.get_or("layers", 2usize)?)
        .with_heads(4);
    // --threads 0 = auto (the hardware); parallel paths
    // are bit-deterministic, so the history is identical for every value.
    let threads = args.get_or("threads", 1usize)?;
    // Backends are bit-identical too: `sim` decorates another backend's
    // kernels with the simulated-GPU profiler and reports the launches
    // afterwards — `sim` alone wraps the reference loops, `sim:simd` wraps
    // the SIMD backend so simulated profiling sees the same launch shapes
    // the accelerated run executes.
    let backend_name = args.get("backend").unwrap_or("reference");
    let mut sim: Option<std::sync::Arc<mega_gpu_sim::SimBackend>> = None;
    let unknown = |name: &str| {
        format!("unknown backend `{name}` (reference | simd | sim[:inner] | profiled[:inner])")
    };
    let backend: std::sync::Arc<dyn mega_exec::Backend> = match backend_name {
        name if name == "sim" || name.starts_with("sim:") => {
            let inner_name = name.strip_prefix("sim:").unwrap_or("reference");
            let inner = mega_exec::backend_by_name(inner_name).ok_or_else(|| unknown(name))?;
            let s = std::sync::Arc::new(mega_gpu_sim::SimBackend::new(
                inner,
                mega_gpu_sim::DeviceConfig::gtx_1080(),
            ));
            sim = Some(s.clone());
            s
        }
        // `profiled` decorates another backend with per-kernel
        // FLOP/byte/time attribution (surfaced by `mega report`).
        name if name.starts_with("profiled:") => {
            let inner_name = name.strip_prefix("profiled:").unwrap_or("reference");
            let inner = mega_exec::backend_by_name(inner_name).ok_or_else(|| unknown(name))?;
            std::sync::Arc::new(mega_exec::ProfiledBackend::new(inner))
        }
        name => mega_exec::backend_by_name(name).ok_or_else(|| unknown(name))?,
    };
    let trainer = Trainer::new(engine)
        .with_epochs(args.get_or("epochs", 5usize)?)
        .with_batch_size(args.get_or("batch", 32usize)?)
        .with_lr(args.get_or("lr", 5e-3f32)?)
        .with_parallelism(mega_core::Parallelism::with_threads(threads))
        .with_backend(backend);
    // Passing --workers (any N >= 1, including 1) routes the run through the
    // distributed trainer, which shards each optimizer step sample-per-shard
    // and all-reduces gradients in a fixed order — the trajectory is
    // bit-identical for every worker count. Omitting the flag keeps the plain
    // whole-batch trainer; its batch-norm sees whole-batch statistics, so it
    // follows a different (equally deterministic) trajectory.
    let workers = match args.get("workers") {
        Some(_) => Some(args.get_or("workers", 1usize)?),
        None => None,
    };
    if workers == Some(0) {
        return Err("--workers must be at least 1".into());
    }
    info!(
        "training {} on {} with the {} engine ({} threads, {} backend, {} trainer)...",
        kind.label(),
        ds.name,
        engine.label(),
        mega_core::Parallelism::with_threads(threads).effective_threads(),
        backend_name,
        match workers {
            Some(k) => format!("distributed x{k}"),
            None => "serial".to_string(),
        }
    );
    let instrument = wants_obs(args);
    if instrument {
        mega_obs::reset();
        mega_obs::set_enabled(true);
    }
    let hist = match workers {
        Some(k) => mega_dist::DistTrainer::new(trainer, k).run(&ds, cfg),
        None => trainer.run(&ds, cfg),
    };
    if instrument {
        mega_obs::set_enabled(false);
    }
    if let Some(sim) = &sim {
        data!("\n=== simulated kernel launches (--backend sim, GTX 1080) ===");
        data!("{}", sim.report());
        data!(
            "simulated backend time: {:.3} ms",
            sim.elapsed_seconds() * 1e3
        );
    }
    data!(
        "simulated GPU epoch: {:.3} ms",
        hist.epoch_sim_seconds * 1e3
    );
    data!(
        "{:>5} {:>12} {:>10} {:>10} {:>12}",
        "epoch",
        "train-loss",
        "val-loss",
        "metric",
        "sim-clock(s)"
    );
    for r in &hist.records {
        data!(
            "{:>5} {:>12.4} {:>10.4} {:>10.4} {:>12.4}",
            r.epoch,
            r.train_loss,
            r.val_loss,
            r.val_metric,
            r.sim_seconds
        );
    }
    write_obs_outputs(args)
}

/// `mega profile` — instrumented training run plus simulated GTX 1080
/// kernel tables, for both engines.
///
/// Trains `--epochs` epochs under full observability, bridges the
/// simulated-GPU kernel statistics into the same registry
/// (`gpusim.dgl.*` / `gpusim.mega.*`), and prints a span tree showing
/// where host time went. `--trace-out` / `--metrics-out` export the run.
pub fn profile(args: &Args) -> Result<(), String> {
    let spec = DatasetSpec {
        train: 64,
        val: 8,
        test: 8,
        seed: 9,
    };
    let ds = dataset_by_name(args.get("dataset").unwrap_or("zinc"), &spec)?;
    let kind = model_by_name(args.get("model").unwrap_or("gt"))?;
    let batch = args.get_or("batch", 64usize)?;
    let hidden = args.get_or("hidden", 64usize)?;
    let epochs = args.get_or("epochs", 2usize)?;
    let threads = args.get_or("threads", 1usize)?;
    let out = match ds.task {
        Task::Regression => 1,
        Task::Classification { classes } => classes,
    };

    mega_obs::reset();
    mega_obs::set_enabled(true);
    for engine in [EngineChoice::Baseline, EngineChoice::Mega] {
        // One span per engine so the tree separates the two runs.
        let (engine_span, gpusim_prefix) = match engine {
            EngineChoice::Baseline => ("engine_dgl", "gpusim.dgl"),
            EngineChoice::Mega => ("engine_mega", "gpusim.mega"),
        };
        let _span = mega_obs::span(engine_span);

        // Simulated-GPU kernel profile of one training step.
        let cost = mega_bench_profile(&ds, kind, engine, batch, hidden)?;
        cost.report.export_obs(gpusim_prefix);
        data!(
            "\n=== {} engine — one epoch ({} steps) ===",
            engine.label(),
            cost.steps
        );
        data!("{}", cost.report);
        data!("simulated epoch: {:.3} ms", cost.epoch_seconds * 1e3);

        // Instrumented host-side training.
        let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, out)
            .with_hidden(hidden)
            .with_layers(2)
            .with_heads(4);
        let trainer = Trainer::new(engine)
            .with_epochs(epochs)
            .with_batch_size(batch)
            .with_parallelism(mega_core::Parallelism::with_threads(threads));
        let hist = trainer.run(&ds, cfg);
        data!(
            "trained {epochs} epochs: final train-loss {:.4} | host phases/epoch \
             (assemble {:.1}ms, forward {:.1}ms, backward {:.1}ms, opt {:.1}ms, eval {:.1}ms)",
            hist.records.last().map_or(f64::NAN, |r| r.train_loss),
            mean_phase(&hist, |p| p.assemble) * 1e3,
            mean_phase(&hist, |p| p.forward) * 1e3,
            mean_phase(&hist, |p| p.backward) * 1e3,
            mean_phase(&hist, |p| p.optimizer) * 1e3,
            mean_phase(&hist, |p| p.evaluate) * 1e3,
        );
    }
    mega_obs::set_enabled(false);

    let snap = mega_obs::snapshot();
    data!("\n=== span tree (host wall clock) ===");
    data!("{}", snap.render_span_tree());
    write_obs_outputs(args)
}

/// Mean of one [`mega_gnn::PhaseSeconds`] field over a run's epochs.
fn mean_phase<F: Fn(&mega_gnn::PhaseSeconds) -> f64>(
    hist: &mega_gnn::TrainingHistory,
    f: F,
) -> f64 {
    if hist.records.is_empty() {
        return 0.0;
    }
    hist.records.iter().map(|r| f(&r.phases)).sum::<f64>() / hist.records.len() as f64
}

fn mega_bench_profile(
    ds: &Dataset,
    kind: ModelKind,
    engine: EngineChoice,
    batch: usize,
    hidden: usize,
) -> Result<mega_gpu_sim::EpochCost, String> {
    let samples = &ds.train[..ds.train.len().min(batch)];
    let schedules: Option<Vec<_>> = match engine {
        EngineChoice::Mega => Some(
            samples
                .iter()
                .map(|s| {
                    mega_preprocess(&s.graph, &MegaConfig::default()).map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?,
        ),
        EngineChoice::Baseline => None,
    };
    let cfg = GnnConfig::new(kind, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(hidden)
        .with_layers(2)
        .with_heads(4);
    let steps = ds.train.len().div_ceil(batch).max(1);
    Ok(mega_gnn::cost::epoch_cost(
        &cfg,
        engine,
        samples,
        schedules.as_deref(),
        steps,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_and_unknown_backends_are_typed_errors() {
        for name in ["blocked", "sim:blocked", "profiled:blocked", "cuda"] {
            let args = Args::parse(["--backend", name].map(String::from));
            let err = train(&args).expect_err("unknown backend must not train");
            assert_eq!(
                err,
                format!(
                    "unknown backend `{name}` (reference | simd | sim[:inner] | profiled[:inner])"
                )
            );
        }
    }
}
