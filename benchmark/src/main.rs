//! The MEGA reproduction's wall-clock benchmark.
//!
//! One binary, three ways in (all through `benchmark/run.sh`, from the
//! root of the checkout):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — **one run** of one
//!   workload in this process: end-to-end metrics with tracing off, or the
//!   per-layer metrics of a traced run. The last stdout line is the result
//!   object the PR driver reads.
//! * no `--trace` — **the suite**: interleaved rounds of every workload,
//!   each round a fresh child process running the mode above, then one
//!   traced round per workload; prints every metric and writes
//!   `benchmark/results/latest.json`.
//! * `--compare A.json B.json` — applies each metric's bound to two suite
//!   results.
//!
//! Every layer is measured from outside: by timing calls into public
//! functions, by wrapping the backend in `ProfiledBackend`, and by reading
//! `mega_obs::snapshot()`. `BENCHMARK.json` declares the names; see
//! `benchmark/README.md` for what each metric means and should move.

mod compare;
mod graph_workload;
mod host;
mod spans;
mod spec;
mod stats;
mod suite;
mod train_workload;
mod workloads;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Where the suite and traced runs write their files, relative to the
/// checkout root.
const RESULTS_DIR: &str = "benchmark/results";

/// Epochs (or band steps) at the head of every timed loop that warm the
/// buffer pool, pack cache and page tables; reported, never timed. One is
/// enough: the second epoch of a run already reads like the tenth.
const WARMUP: usize = 1;

/// How one run was asked to behave.
#[derive(Debug, Clone, Copy)]
struct RunOpts {
    seed: u64,
    /// Measuring time of an untraced run; traced runs do fixed work.
    seconds: f64,
    trace: bool,
    inject_fail: bool,
}

/// Operation and failure accounting. An operation is one optimizer step,
/// one preprocessing call or one band step; a failed check fails the
/// operations it guards.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// `--inject-fail`: the next check is forced to fail, once.
    inject: bool,
}

/// Counts `n` attempted operations.
fn attempt(checks: &mut Checks, n: u64) {
    checks.attempted += n;
}

/// Records the verdict of one correctness check guarding `guarded`
/// already-attempted operations.
fn verdict(checks: &mut Checks, what: &str, ok: bool, guarded: u64) {
    let injected = std::mem::take(&mut checks.inject);
    if ok && !injected {
        return;
    }
    checks.failed += guarded.max(1);
    let cause = if injected { " (injected)" } else { "" };
    checks.failures.push(format!("{what}{cause}"));
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
struct RunOutput {
    /// Metric name → value: end-to-end names untraced, per-layer traced.
    metrics: BTreeMap<String, f64>,
    /// Raw timing samples behind the medians (milliseconds or seconds, as
    /// the metric's unit says), for the suite's pooled statistics.
    samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer names not measured on this host, with the reason; they
    /// are printed as 0.
    skipped: BTreeMap<String, String>,
    checks: Checks,
    /// FNV-1a of the train/validation loss bits of the first epochs, for
    /// training workloads.
    loss_hash: Option<String>,
    /// `mega_obs::snapshot().to_json(false)` of the traced leg.
    obs_json: Option<String>,
}

/// The record a child hands to the suite (`--detail`), one JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Detail {
    workload: String,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    loss_trajectory_hash: Option<String>,
    metrics: Vec<(String, f64)>,
    samples: Vec<(String, Vec<f64>)>,
    skipped: Vec<(String, String)>,
}

/// FNV-1a over 64-bit words: a stable fingerprint of a bit trajectory.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `num / den`, or 0 when nothing was counted (a layer that did no work).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `mega_obs` counter by name; 0 when it never fired.
fn obs_counter(snap: &mega_obs::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Total nanoseconds of a `mega_obs` timing histogram; 0 when empty.
fn obs_timing_ns(snap: &mega_obs::Snapshot, name: &str) -> f64 {
    snap.timings
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, h)| h.sum as f64)
}

/// Inserts 0 for every declared per-layer metric this workload kind does
/// not exercise (`not_covered` holds name prefixes): a layer that does no
/// work in a workload spends no time and moves no bytes there.
fn zero_fill(
    declared: &[spec::MetricDecl],
    not_covered: &[&str],
    metrics: &mut BTreeMap<String, f64>,
) {
    for m in declared {
        if not_covered.iter().any(|p| m.name.starts_with(p)) {
            metrics.entry(m.name.clone()).or_insert(0.0);
        }
    }
}

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    rounds: Option<usize>,
    out: Option<String>,
    check: bool,
    inject_fail: bool,
    detail: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--rounds R] [--workload NAME] [--out FILE] \
[--check] [--inject-fail]\n       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1\n       \
benchmark/run.sh --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("invalid value for {flag}: {text}"))
    }
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => args.seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => {
                let s: f64 = number(value(&mut it, flag)?, flag)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid value for --trace: {other}")),
                });
            }
            "--rounds" => {
                let r: usize = number(value(&mut it, flag)?, flag)?;
                if !(1..=50).contains(&r) {
                    return Err(format!("--rounds must be in 1..=50, got {r}"));
                }
                args.rounds = Some(r);
            }
            "--out" => args.out = Some(value(&mut it, flag)?.clone()),
            "--check" => args.check = true,
            "--inject-fail" => args.inject_fail = true,
            "--detail" => args.detail = true,
            "--compare" => {
                let a = value(&mut it, flag)?.clone();
                let b = value(&mut it, flag)?.clone();
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One run of one workload in this process; prints the result object.
fn run_one(declared: &spec::Declared, args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
    let opts = RunOpts {
        seed: args.seed.unwrap_or(suite::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(suite::ROUND_SECONDS),
        trace: args.trace.unwrap_or(false),
        inject_fail: args.inject_fail,
    };
    let table = workloads::table(args.check);
    let workload = table
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    if !declared.workloads.iter().any(|w| w == name) {
        return Err(format!(
            "workload `{name}` is not declared in BENCHMARK.json"
        ));
    }
    let nproc = mega_core::parallel::host_threads();
    if workload.threads > nproc {
        return Err(format!(
            "refused: `{name}` needs {} cores and this host has {nproc}; a clamped run \
             would report a one-thread number under a {}-thread name",
            workload.threads, workload.threads
        ));
    }
    let mut rec = spans::recorder();
    let (mut out, _) = spans::timed(&mut rec, "run", |rec| match &workload.kind {
        workloads::Kind::Train(t) => train_workload::run(workload, t, &opts, rec),
        workloads::Kind::Graph(g) => graph_workload::run(g, &opts, rec),
    });
    let expected = if opts.trace {
        let not_covered = match workload.kind {
            workloads::Kind::Train(_) => train_workload::NOT_COVERED,
            workloads::Kind::Graph(_) => graph_workload::NOT_COVERED,
        };
        zero_fill(&declared.per_layer, not_covered, &mut out.metrics);
        for skipped in out.skipped.keys() {
            out.metrics.entry(skipped.clone()).or_insert(0.0);
        }
        &declared.per_layer
    } else {
        out.metrics
            .insert("peak_rss_mb".to_string(), host::peak_rss_mb());
        &declared.end_to_end
    };
    spec::check_printed(expected, &out.metrics)?;
    if let Some((name, v)) = out.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric `{name}` is not finite ({v})"));
    }
    if opts.trace {
        suite::write_trace(
            name,
            opts.seed,
            &spans::finish(rec),
            out.obs_json.as_deref(),
        )?;
    }
    for failure in &out.checks.failures {
        mega_obs::error!("check failed: {failure}");
    }
    let correct = out.checks.failed == 0;
    if args.detail {
        let detail = Detail {
            workload: name.to_string(),
            attempted: out.checks.attempted,
            failed: out.checks.failed,
            failures: out.checks.failures.clone(),
            loss_trajectory_hash: out.loss_hash.clone(),
            metrics: out.metrics.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            samples: out
                .samples
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            skipped: out
                .skipped
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        };
        let line = serde_json::to_string(&detail).map_err(|e| e.to_string())?;
        mega_obs::data!("{line}");
    }
    let units: BTreeMap<&str, &str> = expected
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let metrics = out
        .metrics
        .iter()
        .map(|(k, v)| {
            let entry = vec![
                ("value".to_string(), serde::Value::F64(*v)),
                (
                    "unit".to_string(),
                    serde::Value::Str(units[k.as_str()].to_string()),
                ),
            ];
            (k.clone(), serde::Value::Object(entry))
        })
        .collect();
    let result = serde::Value::Object(vec![
        ("correct".to_string(), serde::Value::Bool(correct)),
        (
            "attempted".to_string(),
            serde::Value::U64(out.checks.attempted.max(1)),
        ),
        ("failed".to_string(), serde::Value::U64(out.checks.failed)),
        ("metrics".to_string(), serde::Value::Object(metrics)),
    ]);
    let line = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    mega_obs::data!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    mega_obs::report::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            mega_obs::error!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else {
        spec::load().and_then(|declared| {
            if args.trace.is_some() {
                run_one(&declared, &args)
            } else {
                suite::run(&declared, &args)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            mega_obs::error!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_fails_the_operations_it_guards() {
        let mut c = Checks::default();
        attempt(&mut c, 10);
        verdict(&mut c, "fine", true, 10);
        assert_eq!((c.attempted, c.failed), (10, 0));
        verdict(&mut c, "broken", false, 4);
        assert_eq!(c.failed, 4);
        assert_eq!(c.failures, vec!["broken"]);
    }

    #[test]
    fn an_injected_failure_fires_exactly_once() {
        let mut c = Checks {
            inject: true,
            ..Checks::default()
        };
        attempt(&mut c, 2);
        verdict(&mut c, "first", true, 1);
        verdict(&mut c, "second", true, 1);
        assert_eq!(c.failed, 1);
        assert_eq!(c.failures, vec!["first (injected)"]);
    }

    #[test]
    fn fnv1a_separates_neighbouring_trajectories() {
        let a = fnv1a([1.0f64.to_bits(), 2.0f64.to_bits()]);
        let b = fnv1a([1.0f64.to_bits(), 2.0f64.next_up().to_bits()]);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a([1.0f64.to_bits(), 2.0f64.to_bits()]));
    }

    #[test]
    fn zero_fill_touches_only_uncovered_prefixes() {
        let decl = |name: &str| spec::MetricDecl {
            name: name.to_string(),
            unit: "ms".to_string(),
            better: spec::Better::Lower,
            bound: None,
        };
        let declared = [
            decl("gnn.forward_ms"),
            decl("core.path_len"),
            decl("gnn.kept"),
        ];
        let mut metrics = BTreeMap::from([("gnn.kept".to_string(), 3.0)]);
        zero_fill(&declared, &["gnn."], &mut metrics);
        assert_eq!(metrics.get("gnn.forward_ms"), Some(&0.0));
        assert_eq!(metrics.get("gnn.kept"), Some(&3.0));
        assert!(!metrics.contains_key("core.path_len"));
    }

    #[test]
    fn args_reject_bad_values_by_flag_name() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload w --seed 3 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("w"), Some(3), Some(2.5), Some(true))
        );
        assert!(parse_args(&argv("--trace 2"))
            .unwrap_err()
            .contains("--trace"));
        assert!(parse_args(&argv("--seconds 0"))
            .unwrap_err()
            .contains("--seconds"));
        assert!(parse_args(&argv("--rounds many"))
            .unwrap_err()
            .contains("--rounds"));
        assert!(parse_args(&argv("--compare only-one")).is_err());
        assert!(parse_args(&argv("--frobnicate"))
            .unwrap_err()
            .contains("unknown"));
    }
}
