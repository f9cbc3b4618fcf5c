//! `mega` — command-line interface for the MEGA graph-attention toolkit.
//!
//! ```text
//! mega demo                               # preprocess the paper's demo graph
//! mega preprocess graph.txt --window 2    # preprocess an edge-list file
//! mega stats --dataset all                # Table II/III statistics
//! mega train --dataset zinc --model gt --engine mega --epochs 5
//! mega profile --dataset zinc --model gt  # instrumented training + kernels
//! ```

mod args;
mod commands;
mod report;

use args::Args;
use mega_obs::{data, error};
use std::process::ExitCode;

const USAGE: &str = "\
mega — More Efficient Graph Attention toolkit

USAGE:
    mega <command> [options]

COMMANDS:
    demo                      Preprocess the paper's Fig. 3a demo graph
    preprocess <edge-list>    Preprocess a graph file (one `src dst` per line)
        --window N            fixed traversal window (default: adaptive)
        --coverage F          edge coverage target in (0,1] (default 1.0)
        --drop F              edge-drop fraction in [0,1) (default 0)
        --json                emit the schedule stats as JSON
    stats                     Dataset statistics (Tables II/III)
        --dataset NAME        zinc | aqsol | csl | cycles | all (default all)
    train                     Train a model under one engine
        --dataset NAME        zinc | aqsol | csl | cycles (default zinc)
        --model NAME          gcn | gt | gat (default gcn)
        --engine NAME         dgl | mega (default mega)
        --backend NAME        kernel backend: reference | simd |
                              sim[:inner] | profiled[:inner]
                              (default reference). All backends are
                              bit-identical; `simd` uses vectorized
                              kernels, `sim` wraps reference and prints a
                              simulated GTX 1080 kernel report after
                              training, `profiled` wraps another backend
                              and attributes FLOPs/bytes/time per kernel
                              into the metrics registry (see `mega report`).
        --epochs N            (default 5)   --batch N   (default 32)
        --hidden N            (default 32)  --lr F      (default 0.005)
        --threads N           CPU worker threads for preprocessing, batching
                              and tape matmuls; 0 = auto from the
                              hardware (default 1).
                              Results are bit-identical for every value.
        --workers N           run the distributed trainer: shard each
                              optimizer step across N worker threads and
                              all-reduce the gradients in a fixed order. The
                              trajectory is bit-identical for every N >= 1.
                              Omit the flag for the plain whole-batch
                              trainer (different batch-norm statistics, so a
                              different — equally deterministic — run).
        --trace-out FILE      write a Chrome-trace JSON of the run
        --metrics-out FILE    write a deterministic metrics snapshot JSON
    profile                   Instrumented training run + simulated GTX 1080
                              kernel profile, both engines; prints the span
                              tree of where host time went
        --dataset NAME        (default zinc)  --model NAME (default gt)
        --batch N             (default 64)    --hidden N   (default 64)
        --epochs N            epochs to train under instrumentation (default 2)
        --threads N           (default 1)
        --trace-out FILE      write a Chrome-trace JSON of the run
        --metrics-out FILE    write a deterministic metrics snapshot JSON
    report <snapshot.json>    Render a markdown performance report from a
                              metrics snapshot: per-kernel roofline table
                              (from `--backend profiled` runs), buffer-pool
                              residency, traversal locality, training
                              health, and spans
        --baseline FILE       diff against an earlier snapshot, or place a
                              bench_results/backend_matmul.json sweep on
                              the GEMM roof
        --out FILE            write the markdown to FILE instead of stdout
        --calibration FILE    load roofs from FILE (or save, with --calibrate)
        --calibrate           measure machine roofs now instead of using
                              the fixed deterministic reference roofs
        --calibrate-backend N backend to calibrate on (default simd)

GLOBAL OPTIONS:
    --quiet                   suppress status messages (data output only);
                              MEGA_LOG=quiet|info|debug sets the same level
";

fn main() -> ExitCode {
    mega_obs::report::init_from_env();
    let mut raw = std::env::args().skip(1).peekable();
    let Some(command) = raw.next() else {
        // mega-lint: allow(obs-routing, reason = "usage text on stderr is the CLI's error surface, not telemetry")
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(raw);
    if args.has_flag("quiet") {
        mega_obs::report::set_level(mega_obs::report::Level::Quiet);
    }
    let result = match command.as_str() {
        "demo" => commands::demo(),
        "preprocess" => commands::preprocess(&args),
        "stats" => commands::stats(&args),
        "train" => commands::train(&args),
        "profile" => commands::profile(&args),
        "report" => report::report(&args),
        "help" | "--help" | "-h" => {
            data!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; run `mega help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            error!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
